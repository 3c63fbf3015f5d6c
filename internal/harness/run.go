package harness

import (
	"fmt"

	"omegasm/internal/baseline"
	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/shmem"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

// Preset describes one simulated run of AS[n, AWB]: an interleaving of
// process steps in which every correct process takes infinitely many
// steps with finite but unbounded gaps (Pacing), after Tau1 the steps of
// one correct process are at most Delta apart (AWB1), and the timers are
// asymptotically well-behaved (Timers; AWB2, see package vclock).
type Preset struct {
	Algo    Algo
	N       int
	Seed    int64
	Horizon vclock.Time
	// Crash maps pid -> crash time. Processes not present never crash.
	Crash map[int]vclock.Time

	// AWBProc designates p_ell (-1: nobody; the run then satisfies AWB1
	// only if the Pacing does): from Tau1 on its inter-step gap is clamped
	// to Delta ticks (default 8).
	AWBProc int
	Tau1    vclock.Time
	Delta   vclock.Duration

	// Per-process adversaries; nil slices or entries default to
	// engine.Uniform{1, 8} and vclock.Exact{Scale: 4, Floor: 1}.
	Pacing []engine.Pacing
	Timers []vclock.Behavior

	// Strawman parameters.
	StrawMod     uint64
	StrawSuspCap uint64

	// LogClasses enables per-write logging for these register classes.
	LogClasses []string

	// SampleEvery is the observation period for leader estimates
	// (default 64 ticks).
	SampleEvery vclock.Duration

	// Build replaces Algo's processes (ablations, seeded registers).
	Build func(mem shmem.Mem) []core.Proc
	// OnSample observes the run as it unfolds, at every sample.
	OnSample func(mem shmem.Mem, s trace.Sample)
	// Aux registers further machines (e.g. consensus replicas) on the
	// run's engine, after the processes and the sampler.
	Aux func(mem shmem.Mem, procs []core.Proc, sim *engine.Sim) error
}

// RunOutcome is the measured result of one simulated run.
type RunOutcome struct {
	// Samples holds every observation, the last one taken at EndTime;
	// Crashed[p] reports whether p had crashed by then.
	Samples []trace.Sample
	Crashed []bool
	EndTime vclock.Time

	End      *shmem.CensusSnapshot
	Mid      *shmem.CensusSnapshot // taken at 3/4 of the horizon
	MidTime  vclock.Time
	WriteLog []shmem.WriteEvent

	StabTime vclock.Time
	Leader   int
	Stable   bool

	// Invariants is the online checker attached to every run: Validity,
	// crash monotonicity, time monotonicity. A violation is a bug, not an
	// experimental outcome.
	Invariants *trace.InvariantChecker
}

// Suffix returns the census of the post-midpoint window (final minus
// midpoint): the operational version of the paper's "after some finite
// time" quantifier.
func (o *RunOutcome) Suffix() *shmem.CensusSnapshot {
	return o.End.Diff(o.Mid)
}

// StableBeforeMid reports whether the run had stabilized before the
// midpoint snapshot, which the suffix-window verdicts require.
func (o *RunOutcome) StableBeforeMid() bool {
	return o.Stable && o.StabTime <= o.MidTime
}

// validate checks the preset and fills its defaults.
func (p *Preset) validate() error {
	if p.N < 2 {
		return fmt.Errorf("harness: need at least 2 processes, got %d", p.N)
	}
	if p.SampleEvery <= 0 {
		p.SampleEvery = 64
	}
	if p.Delta <= 0 {
		p.Delta = 8
	}
	if p.Pacing == nil {
		p.Pacing = make([]engine.Pacing, p.N)
	}
	if p.Timers == nil {
		p.Timers = make([]vclock.Behavior, p.N)
	}
	if len(p.Pacing) != p.N || len(p.Timers) != p.N {
		return fmt.Errorf("harness: len(Pacing)=%d, len(Timers)=%d, want %d", len(p.Pacing), len(p.Timers), p.N)
	}
	if p.AWBProc >= p.N {
		return fmt.Errorf("harness: AWBProc=%d out of range for n=%d", p.AWBProc, p.N)
	}
	if ct, ok := p.Crash[p.AWBProc]; ok {
		return fmt.Errorf("harness: AWBProc %d is scheduled to crash at %d; AWB1 requires a correct process", p.AWBProc, ct)
	}
	return nil
}

// procs allocates the preset's processes over mem.
func (p *Preset) procs(mem shmem.Mem) ([]core.Proc, error) {
	if p.Build != nil {
		return p.Build(mem), nil
	}
	switch p.Algo {
	case AlgoWriteEfficient:
		return core.Procs(core.BuildAlgo1(mem, p.N)), nil
	case AlgoBounded:
		return core.Procs(core.BuildAlgo2(mem, p.N)), nil
	case AlgoNWNR:
		return core.Procs(core.BuildNWNR(mem, p.N)), nil
	case AlgoTimerFree:
		return core.Procs(core.BuildTimerFree(mem, p.N)), nil
	case AlgoBaseline:
		return core.Procs(baseline.Build(mem, p.N)), nil
	case AlgoStrawman:
		mod, suspCap := p.StrawMod, p.StrawSuspCap
		if mod == 0 {
			mod = 4
		}
		if suspCap == 0 {
			suspCap = 8
		}
		return core.Procs(core.BuildStrawman(mem, p.N, mod, suspCap)), nil
	}
	return nil, fmt.Errorf("harness: unknown algorithm %q", p.Algo)
}

// Execute runs one preset to completion on the virtual-time engine and
// analyzes it. All steps serialize on the caller's goroutine, so the
// registers are linearized in event order and the run is a pure function
// of the preset.
func Execute(p Preset) (*RunOutcome, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	sim, err := engine.NewSim(engine.SimConfig{Seed: p.Seed, Horizon: p.Horizon})
	if err != nil {
		return nil, err
	}
	mem := shmem.NewSimMem(p.N)
	mem.Census().SetClock(sim.Now)
	if len(p.LogClasses) > 0 {
		mem.Census().LogWrites(p.LogClasses...)
	}
	procs, err := p.procs(mem)
	if err != nil {
		return nil, err
	}
	if len(procs) != p.N {
		return nil, fmt.Errorf("harness: %d processes for n=%d", len(procs), p.N)
	}

	out := &RunOutcome{Crashed: make([]bool, p.N), Invariants: trace.NewInvariantChecker(p.N)}
	midAt := p.Horizon * 3 / 4
	sample := func() {
		s := trace.Sample{T: sim.Now(), Leaders: make([]int, p.N)}
		for i, proc := range procs {
			// Machine i is process i; one that reached its crash time is
			// reported crashed even if no event has collected it yet.
			if out.Crashed[i] = sim.Crashed(i); out.Crashed[i] {
				s.Leaders[i] = -1
			} else {
				s.Leaders[i] = proc.Leader()
			}
		}
		out.Samples = append(out.Samples, s)
		out.Invariants.OnSample(s)
		if out.Mid == nil && s.T >= midAt {
			out.Mid, out.MidTime = mem.Census().Snapshot(), s.T
		}
		if p.OnSample != nil {
			p.OnSample(mem, s)
		}
	}

	// Machines are added in a fixed order — each process (step then
	// timer), the sampler, then the auxiliaries — because Add draws each
	// first step from the run's rng: the order is part of the schedule.
	for i, proc := range procs {
		pacing := p.Pacing[i]
		if i == p.AWBProc {
			if pacing == nil {
				pacing = engine.Uniform{Min: 1, Max: 8}
			}
			pacing = engine.Clamp{P: pacing, From: p.Tau1, Delta: p.Delta}
		}
		timer := p.Timers[i]
		if timer == nil {
			timer = vclock.Exact{Scale: 4, Floor: 1}
		}
		opts := []engine.SimOpt{engine.WithPacing(pacing), engine.WithTimer(timer, 1)}
		if ct, ok := p.Crash[i]; ok {
			opts = append(opts, engine.WithCrashAt(ct))
		}
		sim.Add(engine.AlwaysReady(proc), opts...)
	}
	sim.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint {
		sample()
		return engine.At(now + p.SampleEvery)
	}), engine.WithFirstWakeAt(p.SampleEvery))
	if p.Aux != nil {
		if err := p.Aux(mem, procs, sim); err != nil {
			return nil, err
		}
	}

	out.EndTime = sim.Run()
	sample() // final observation, so callers always see the end state
	out.End = mem.Census().Snapshot()
	if out.Mid == nil { // horizon too small for a sample past 3/4 of it
		out.Mid, out.MidTime = out.End, out.EndTime
	}
	out.WriteLog = mem.Census().WriteLog()
	out.StabTime, out.Leader, out.Stable = trace.Stabilization(out.Samples, out.Crashed)
	return out, nil
}
