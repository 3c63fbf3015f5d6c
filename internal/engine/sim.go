package engine

import (
	"fmt"
	"math/rand"

	"omegasm/internal/vclock"
)

// SimConfig parameterizes one deterministic virtual-time run.
type SimConfig struct {
	// Seed drives the run's single randomness source; identical seeds (and
	// identical machine sets) produce identical runs.
	Seed int64
	// Horizon ends the run: events scheduled after it never execute.
	Horizon vclock.Time
}

// Sim is the virtual-time engine: an event queue over abstract ticks,
// single-threaded, with the seeded per-machine Pacing adversary choosing
// the interleaving and crash schedules descheduling machines permanently.
// All machine steps happen on the goroutine that calls Run, so registers
// shared by the machines are linearized in event order and a run is an
// exactly reproducible function of (seed, machines, schedules).
type Sim struct {
	cfg   SimConfig
	rng   *rand.Rand
	now   vclock.Time
	queue eventQueue // the event heap shared with the live engine
	seq   uint64
	slots []*simSlot

	running bool
	stopped bool
}

type simSlot struct {
	m  Machine
	tm TimerMachine

	pacing         Pacing
	timer          vclock.Behavior
	initialTimeout uint64
	firstAt        vclock.Time // -1: draw from pacing
	crashAt        vclock.Time // -1: never

	crashed   bool
	crashTime vclock.Time
	gen       uint64
	steps     uint64
	firings   uint64
}

// alwaysReady is the machine AlwaysReady returns.
type alwaysReady struct {
	body  interface{ Step(now vclock.Time) }
	timer interface{ OnTimer(now vclock.Time) uint64 } // nil: body has no task T3
}

// AlwaysReady adapts a body whose loop always has work — the paper's task
// T2, or a replica co-scheduled with it — to a Sim machine: every step
// hints WakeNow, so the machine's Pacing alone decides when the next step
// is granted. A body that also has a task T3 gets its OnTimer forwarded;
// the timer runs only if the machine is added WithTimer.
func AlwaysReady(body interface{ Step(now vclock.Time) }) TimerMachine {
	m := alwaysReady{body: body}
	m.timer, _ = body.(interface{ OnTimer(now vclock.Time) uint64 })
	return m
}

//omegalint:allow wakehint sim-only machine: under the Sim engine WakeNow defers to the pacing adversary, so a perpetual-work hint is the model, not a busy-poll
func (m alwaysReady) Step(now vclock.Time) Hint {
	m.body.Step(now)
	return Now()
}

func (m alwaysReady) OnTimer(now vclock.Time) uint64 { return m.timer.OnTimer(now) }

// NewSim validates cfg and builds an empty simulation.
func NewSim(cfg SimConfig) (*Sim, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("engine: horizon must be positive, got %d", cfg.Horizon)
	}
	return &Sim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// SimOpt configures one machine added to a simulation.
type SimOpt func(*simSlot)

// WithPacing sets the machine's step adversary (default Uniform{1, 8}).
func WithPacing(p Pacing) SimOpt {
	return func(sl *simSlot) {
		if p != nil {
			sl.pacing = p
		}
	}
}

// WithTimer arms the machine's T3 timer under behavior b, first set to
// the initial timeout value. The machine must implement TimerMachine.
func WithTimer(b vclock.Behavior, initial uint64) SimOpt {
	return func(sl *simSlot) {
		sl.timer = b
		sl.initialTimeout = initial
	}
}

// WithCrashAt schedules a permanent crash: the first event of the machine
// at or after t collects it instead of executing, exactly the lazy
// crash-stop semantics the scheduler always had.
func WithCrashAt(t vclock.Time) SimOpt {
	return func(sl *simSlot) { sl.crashAt = t }
}

// WithFirstWakeAt pins the machine's first step to time t instead of a
// pacing draw (used for fixed-cadence observers like the sampler).
func WithFirstWakeAt(t vclock.Time) SimOpt {
	return func(sl *simSlot) { sl.firstAt = t }
}

// Add registers a machine, seeds its first step (and timer, if armed) and
// returns its id. The seeding draws from the run's rng in Add order, so
// callers control the deterministic schedule by adding machines in a
// fixed order. Add may be called before Run only.
func (s *Sim) Add(m Machine, opts ...SimOpt) int {
	if s.running {
		panic("engine: Add during Run")
	}
	sl := &simSlot{
		m:              m,
		pacing:         Uniform{Min: 1, Max: 8},
		initialTimeout: 1,
		firstAt:        -1,
		crashAt:        -1,
	}
	if tm, ok := m.(TimerMachine); ok {
		sl.tm = tm
	}
	for _, o := range opts {
		o(sl)
	}
	s.slots = append(s.slots, sl)
	id := len(s.slots) - 1
	first := sl.firstAt
	if first < 0 {
		first = s.stepDelay(sl)
	}
	s.push(event{at: first, kind: evStep, id: id, gen: sl.gen})
	if sl.timer != nil && sl.tm != nil {
		s.push(event{at: sl.timer.Expire(0, sl.initialTimeout), kind: evTimer, id: id})
	}
	return id
}

// push stamps ev with the run's next sequence number and enqueues it.
func (s *Sim) push(ev event) {
	s.seq++
	ev.seq = s.seq
	s.queue.push(ev)
}

// stepDelay draws the machine's next inter-step delay from its pacing,
// floored at one tick.
func (s *Sim) stepDelay(sl *simSlot) vclock.Duration {
	d := sl.pacing.Next(s.rng, s.now)
	if d < 1 {
		d = 1
	}
	return d
}

// Now returns the current virtual time.
func (s *Sim) Now() vclock.Time { return s.now }

// Rng exposes the run's seeded randomness source (for hooks that perturb
// the run deterministically).
func (s *Sim) Rng() *rand.Rand { return s.rng }

// Stop ends the run after the current event.
func (s *Sim) Stop() { s.stopped = true }

// Crashed reports whether machine id has been collected by its crash
// schedule, or is due: a parked machine past its crash time is dead even
// though no event has collected it yet.
func (s *Sim) Crashed(id int) bool {
	sl := s.slots[id]
	return sl.crashed || (sl.crashAt >= 0 && s.now >= sl.crashAt)
}

// CrashTime returns machine id's crash time, or -1 if it has not crashed
// (a due-but-uncollected machine reports its scheduled crash time).
func (s *Sim) CrashTime(id int) vclock.Time {
	sl := s.slots[id]
	if sl.crashed {
		return sl.crashTime
	}
	if sl.crashAt >= 0 && s.now >= sl.crashAt {
		return sl.crashAt
	}
	return -1
}

// Steps returns how many Step calls machine id has executed.
func (s *Sim) Steps(id int) uint64 { return s.slots[id].steps }

// TimerFirings returns how many OnTimer calls machine id has executed.
func (s *Sim) TimerFirings(id int) uint64 { return s.slots[id].firings }

// Notify wakes machine id at the next tick, superseding any later pending
// step. Deterministic: it may only be called from machine bodies running
// inside Run (or before Run). Notifying a crashed machine is a strict
// no-op — including a parked machine whose crash time has passed but that
// no event has collected yet: such a machine is dead, so the notify
// collects it instead of waking it, and neither bumps its generation nor
// consumes an event sequence number (which would perturb same-time
// tie-breaks elsewhere in the run).
func (s *Sim) Notify(id int) {
	sl := s.slots[id]
	if sl.crashAt >= 0 && s.now+1 >= sl.crashAt {
		if !sl.crashed {
			sl.crashed = true
			sl.crashTime = sl.crashAt
		}
		return
	}
	if sl.crashed {
		return
	}
	sl.gen++
	s.push(event{at: s.now + 1, kind: evStep, id: id, gen: sl.gen})
}

// Run executes the simulation until the horizon, queue exhaustion or an
// early Stop, and returns the end time.
func (s *Sim) Run() vclock.Time {
	s.running = true
	for len(s.queue) > 0 && !s.stopped {
		e := s.queue.popMin()
		if e.at > s.cfg.Horizon {
			break
		}
		s.now = e.at
		sl := s.slots[e.id]
		if sl.crashed {
			continue
		}
		if sl.crashAt >= 0 && e.at >= sl.crashAt {
			sl.crashed = true
			sl.crashTime = sl.crashAt
			continue
		}
		if e.kind == evStep {
			if e.gen != sl.gen {
				continue // superseded by a Notify
			}
			hint := sl.m.Step(s.now)
			sl.steps++
			switch hint.Kind {
			case WakeNow:
				s.push(event{at: s.now + s.stepDelay(sl), kind: evStep, id: e.id, gen: sl.gen})
			case WakeAt:
				at := hint.At
				if at <= s.now {
					at = s.now + 1
				}
				s.push(event{at: at, kind: evStep, id: e.id, gen: sl.gen})
			case WakePark:
				// No successor event: the machine sleeps until Notify.
			default:
				panic(fmt.Sprintf("engine: invalid wake hint %+v", hint))
			}
		} else {
			x := sl.tm.OnTimer(s.now)
			sl.firings++
			if x > 0 {
				d := sl.timer.Expire(s.now, x)
				if d < 1 {
					d = 1
				}
				s.push(event{at: s.now + d, kind: evTimer, id: e.id})
			}
		}
	}
	s.running = false
	return s.now
}
