package engine

import (
	"math/rand"

	"omegasm/internal/vclock"
)

// Pacing generates the inter-step delays of one simulated machine: how
// long after a completed step the Sim engine waits before granting the
// next one. This is the adversary of the asynchronous model: the paper
// places no bound on these delays for any process except (after tau_1)
// the AWB1 process, so a Pacing may return arbitrarily large — but finite
// — values.
type Pacing interface {
	// Next returns the delay before the process's next step, >= 1 tick.
	Next(rng *rand.Rand, now vclock.Time) vclock.Duration
}

// Fixed paces a process at exactly D ticks per step: a synchronous process.
type Fixed struct {
	D vclock.Duration // ticks per step (floored at 1)
}

var _ Pacing = Fixed{}

// Next implements Pacing.
func (f Fixed) Next(*rand.Rand, vclock.Time) vclock.Duration {
	if f.D < 1 {
		return 1
	}
	return f.D
}

// Uniform draws each delay uniformly from [Min, Max].
type Uniform struct {
	Min, Max vclock.Duration // inclusive delay bounds
}

var _ Pacing = Uniform{}

// Next implements Pacing.
func (u Uniform) Next(rng *rand.Rand, _ vclock.Time) vclock.Duration {
	lo, hi := u.Min, u.Max
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + rng.Int63n(hi-lo+1)
}

// HeavyTail is the canonical asynchronous adversary: usually a delay in
// [Min, Max], but with probability StallP a stall drawn uniformly from
// [Max, StallMax]. Stalls are finite, so the process is correct, yet no
// bound on its speed holds — exactly the processes AWB leaves
// unconstrained.
type HeavyTail struct {
	Min, Max vclock.Duration // inclusive bounds of an ordinary delay
	StallP   float64         // probability of a stall per step
	StallMax vclock.Duration // upper bound of a stall (the lower is Max)
}

var _ Pacing = HeavyTail{}

// Next implements Pacing.
func (h HeavyTail) Next(rng *rand.Rand, now vclock.Time) vclock.Duration {
	if h.StallP > 0 && rng.Float64() < h.StallP {
		lo := h.Max
		if lo < 1 {
			lo = 1
		}
		hi := h.StallMax
		if hi < lo {
			hi = lo
		}
		return lo + rng.Int63n(hi-lo+1)
	}
	return Uniform{Min: h.Min, Max: h.Max}.Next(rng, now)
}

// Phase switches pacing at a boundary time: Before applies strictly before
// At, After applies from At on. Used to build runs that are chaotic for a
// finite prefix and then settle — the shape of every AWB run.
type Phase struct {
	At     vclock.Time // boundary time
	Before Pacing      // pacing strictly before At
	After  Pacing      // pacing from At on
}

var _ Pacing = Phase{}

// Next implements Pacing.
func (p Phase) Next(rng *rand.Rand, now vclock.Time) vclock.Duration {
	if now < p.At {
		return p.Before.Next(rng, now)
	}
	return p.After.Next(rng, now)
}

// GrowingStall stalls the process every Every steps, with stall durations
// that double each time (capped at Cap, 0 meaning horizon-scale). Every
// stall is finite, so the process is correct; but no fixed bound on its
// step gaps ever holds, so the process is suspected infinitely often and
// stays out of the paper's set B — the canonical "correct but forever
// untimely" process of the AWB model. Used to force a chosen process to
// win the election (experiment F3).
type GrowingStall struct {
	Min, Max vclock.Duration // base pace between stalls
	Every    int             // steps between stalls (>= 1)
	First    vclock.Duration // first stall duration
	Cap      vclock.Duration // stall growth cap (0: 1<<40 ticks)

	steps int
	cur   vclock.Duration
}

var _ Pacing = (*GrowingStall)(nil)

// Next implements Pacing.
func (g *GrowingStall) Next(rng *rand.Rand, now vclock.Time) vclock.Duration {
	every := g.Every
	if every < 1 {
		every = 1
	}
	g.steps++
	if g.steps%every != 0 {
		return Uniform{Min: g.Min, Max: g.Max}.Next(rng, now)
	}
	if g.cur == 0 {
		g.cur = g.First
		if g.cur < 1 {
			g.cur = 1
		}
	} else {
		g.cur *= 2
	}
	maxStall := g.Cap
	if maxStall <= 0 {
		maxStall = 1 << 40
	}
	if g.cur > maxStall {
		g.cur = maxStall
	}
	return g.cur
}

// Chase is the leader-chasing adversary: whenever the observed leader
// estimate (maintained by an observer of the run in *Target) names this
// process, its next step is delayed by a stall; otherwise it paces at
// Base. With Grow=false the stalls are bounded, so every process still
// satisfies AWB1 with delta = Stall and Omega must stabilize despite the
// persecution. With Grow=true the stalls double forever: the adversary
// chases whoever leads with unbounded outages, no process satisfies AWB1,
// and the assumption's hypothesis fails — experiment A3 uses the pair to
// show AWB1 is load-bearing.
type Chase struct {
	Self   int             // this process's id
	Target *int            // updated by the observer; -1 = nobody chased
	Base   Pacing          // pacing while not chased (nil: Uniform{1, 8})
	Stall  vclock.Duration // (first) stall length
	Grow   bool            // double the stall on every chased step

	cur vclock.Duration
}

var _ Pacing = (*Chase)(nil)

// Next implements Pacing.
func (c *Chase) Next(rng *rand.Rand, now vclock.Time) vclock.Duration {
	if c.Target == nil || *c.Target != c.Self {
		base := c.Base
		if base == nil {
			base = Uniform{Min: 1, Max: 8}
		}
		return base.Next(rng, now)
	}
	if c.cur == 0 || !c.Grow {
		c.cur = c.Stall
		if c.cur < 1 {
			c.cur = 1
		}
	} else {
		c.cur *= 2
	}
	return c.cur
}

// Clamp bounds another pacing's delays from time From on — the AWB1
// enforcement shape: after tau_1 the designated correct process's
// consecutive steps (and hence its consecutive critical-register
// accesses, which happen within steps) are at most Delta apart. Before
// From the inner pacing is passed through untouched.
type Clamp struct {
	P     Pacing          // the pacing being bounded
	From  vclock.Time     // time the bound starts to hold (tau_1)
	Delta vclock.Duration // the bound
}

var _ Pacing = Clamp{}

// Next implements Pacing.
func (c Clamp) Next(rng *rand.Rand, now vclock.Time) vclock.Duration {
	d := c.P.Next(rng, now)
	if now >= c.From && d > c.Delta {
		d = c.Delta
	}
	return d
}

// Brownout multiplies another pacing's delays by Factor inside the
// window [From, To) — a process (or a whole cluster, when every machine
// wears one) running through a finite slow spell: steps still happen, just
// Factor times further apart. Outside the window the inner pacing passes
// through untouched, so a Brownout wrapped outside a Clamp preserves the
// eventual AWB1 bound once the window closes.
type Brownout struct {
	P        Pacing          // the pacing being slowed
	From, To vclock.Time     // the window [From, To)
	Factor   vclock.Duration // delay multiplier inside the window
}

var _ Pacing = Brownout{}

// Next implements Pacing.
func (b Brownout) Next(rng *rand.Rand, now vclock.Time) vclock.Duration {
	d := b.P.Next(rng, now)
	if now >= b.From && now < b.To && b.Factor > 1 {
		d *= b.Factor
	}
	return d
}

// OwnRng wraps a pacing with its own random source, making the process's
// delay sequence a pure function of its own seed: the k-th delay is the
// k-th draw regardless of how runs interleave. Experiments that compare a
// truncated "dry run" against a full run (T5d) rely on this to keep the
// two schedules identical even when a scheduler-level knob (e.g. the AWB1
// clamp target) differs between them.
type OwnRng struct {
	Rng *rand.Rand // the process's own source
	P   Pacing     // the pacing drawing from it
}

var _ Pacing = OwnRng{}

// Next implements Pacing, ignoring the scheduler's shared source.
func (o OwnRng) Next(_ *rand.Rand, now vclock.Time) vclock.Duration {
	return o.P.Next(o.Rng, now)
}

// StallOnce paces a process at Base except for a single deterministic
// stall of Dur ticks at the first step scheduled at or after At. Used by
// experiments that need one precisely-placed outage (e.g. demoting an
// incumbent leader exactly once, ablation A2).
type StallOnce struct {
	At   vclock.Time     // the stall happens at the first step at or after At
	Dur  vclock.Duration // stall length
	Base Pacing          // pacing otherwise (nil: Uniform{1, 8})

	done bool
}

var _ Pacing = (*StallOnce)(nil)

// Next implements Pacing.
func (s *StallOnce) Next(rng *rand.Rand, now vclock.Time) vclock.Duration {
	if !s.done && now >= s.At {
		s.done = true
		if s.Dur < 1 {
			return 1
		}
		return s.Dur
	}
	base := s.Base
	if base == nil {
		base = Uniform{Min: 1, Max: 8}
	}
	return base.Next(rng, now)
}

// Lockstep paces a process so each step lands on the next multiple of
// Period (plus Offset). Together with vclock.PhaseLocked timers it builds
// the Figure 4 lower-bound schedule in which a bounded shared memory
// revisits the same state at every observation.
type Lockstep struct {
	Period vclock.Duration // > 0
	Offset vclock.Duration // phase of the grid
}

var _ Pacing = Lockstep{}

// Next implements Pacing.
func (l Lockstep) Next(_ *rand.Rand, now vclock.Time) vclock.Duration {
	period := l.Period
	if period < 1 {
		period = 1
	}
	next := now + 1
	rem := (next - l.Offset) % period
	if rem < 0 {
		rem += period
	}
	if rem != 0 {
		next += period - rem
	}
	return next - now
}
