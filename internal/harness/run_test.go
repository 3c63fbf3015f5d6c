package harness

import (
	"reflect"
	"testing"

	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/shmem"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

// fakeProc records the virtual times at which it was stepped and fired.
type fakeProc struct {
	id        int
	stepTimes []vclock.Time
	fireTimes []vclock.Time
}

func (p *fakeProc) Step(now vclock.Time) { p.stepTimes = append(p.stepTimes, now) }
func (p *fakeProc) OnTimer(now vclock.Time) uint64 {
	p.fireTimes = append(p.fireTimes, now)
	return 1
}
func (p *fakeProc) Leader() int { return p.id }
func (p *fakeProc) ID() int     { return p.id }

// runFakes executes p over n recording processes (n may differ from p.N
// to provoke the mismatch error).
func runFakes(p Preset, n int) (*RunOutcome, []*fakeProc, error) {
	fakes := make([]*fakeProc, n)
	for i := range fakes {
		fakes[i] = &fakeProc{id: i}
	}
	p.Build = func(shmem.Mem) []core.Proc { return core.Procs(fakes) }
	out, err := Execute(p)
	return out, fakes, err
}

func mustRunFakes(t *testing.T, p Preset) (*RunOutcome, []*fakeProc) {
	t.Helper()
	out, fakes, err := runFakes(p, p.N)
	if err != nil {
		t.Fatal(err)
	}
	return out, fakes
}

func TestPresetValidation(t *testing.T) {
	for _, tc := range []struct {
		what  string
		p     Preset
		procs int
	}{
		{"n=1", Preset{N: 1, Horizon: 10}, 1},
		{"zero horizon", Preset{N: 2, Horizon: 0}, 2},
		{"proc count mismatch", Preset{N: 2, Horizon: 10}, 3},
		{"AWBProc out of range", Preset{N: 2, Horizon: 10, AWBProc: 5}, 2},
		{"crashing the AWB1 process", Preset{N: 2, Horizon: 10, AWBProc: 0, Crash: map[int]vclock.Time{0: 5}}, 2},
		{"wrong Pacing length", Preset{N: 2, Horizon: 10, Pacing: make([]engine.Pacing, 1)}, 2},
		{"wrong Timers length", Preset{N: 2, Horizon: 10, Timers: make([]vclock.Behavior, 5)}, 2},
	} {
		if _, _, err := runFakes(tc.p, tc.procs); err == nil {
			t.Errorf("%s accepted", tc.what)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) ([]trace.Sample, []vclock.Time) {
		out, fakes := mustRunFakes(t, Preset{N: 3, Seed: seed, Horizon: 5000, AWBProc: -1})
		return out.Samples, fakes[0].stepTimes
	}
	aSamples, aSteps := run(99)
	bSamples, bSteps := run(99)
	if !reflect.DeepEqual(aSamples, bSamples) || !reflect.DeepEqual(aSteps, bSteps) {
		t.Fatal("same seed produced different runs")
	}
	// Different seeds must draw different interleavings (observable via
	// the step times; the sample times are fixed by SampleEvery).
	_, cSteps := run(100)
	if reflect.DeepEqual(aSteps, cSteps) {
		t.Fatal("different seeds produced identical step schedules (suspicious)")
	}
}

func TestCrashStopsProcess(t *testing.T) {
	out, fakes := mustRunFakes(t, Preset{
		N: 2, Seed: 1, Horizon: 10_000, AWBProc: -1,
		Crash: map[int]vclock.Time{1: 2_000},
	})
	if !out.Crashed[1] || out.Crashed[0] {
		t.Fatalf("Crashed = %v", out.Crashed)
	}
	for _, ts := range append(fakes[1].stepTimes, fakes[1].fireTimes...) {
		if ts >= 2_000 {
			t.Fatalf("crashed process ran at t=%d", ts)
		}
	}
	// Samples report -1 for the crashed process from its crash time on.
	for _, s := range out.Samples {
		want := 1
		if s.T >= 2_000 {
			want = -1
		}
		if s.Leaders[1] != want {
			t.Fatalf("process 1 sampled as %d at t=%d, want %d", s.Leaders[1], s.T, want)
		}
		if s.Leaders[0] != 0 {
			t.Fatalf("live process sampled as %d", s.Leaders[0])
		}
	}
}

func TestAWBClampBoundsGaps(t *testing.T) {
	// Process 0 has a pathologically slow pacing; the AWB clamp must cap
	// its post-tau1 gaps at Delta.
	p := Preset{
		N: 2, Seed: 5, Horizon: 50_000,
		AWBProc: 0, Tau1: 10_000, Delta: 6,
		Pacing: []engine.Pacing{engine.Uniform{Min: 500, Max: 900}, nil},
	}
	_, fakes := mustRunFakes(t, p)
	var prev vclock.Time = -1
	for _, ts := range fakes[0].stepTimes {
		if prev >= p.Tau1 && ts-prev > 6 {
			t.Fatalf("AWB1 gap %d > Delta at t=%d", ts-prev, ts)
		}
		prev = ts
	}
	// Sanity: before tau1 the slow pacing really produced big gaps.
	big := false
	prev = -1
	for _, ts := range fakes[0].stepTimes {
		if ts > p.Tau1 {
			break
		}
		if prev >= 0 && ts-prev > 6 {
			big = true
		}
		prev = ts
	}
	if !big {
		t.Error("test vacuous: no large pre-tau1 gaps")
	}
}

// TestOnSampleSeesEverySample: the callback runs once per recorded
// sample, in order, the final observation included.
func TestOnSampleSeesEverySample(t *testing.T) {
	var seen []vclock.Time
	p := Preset{N: 2, Seed: 1, Horizon: 2_000, AWBProc: -1, SampleEvery: 100}
	p.OnSample = func(_ shmem.Mem, s trace.Sample) { seen = append(seen, s.T) }
	out, _ := mustRunFakes(t, p)
	if len(seen) != len(out.Samples) || len(seen) < 20 {
		t.Fatalf("callback ran %d times for %d samples", len(seen), len(out.Samples))
	}
	for i, s := range out.Samples {
		if seen[i] != s.T {
			t.Fatalf("sample %d: callback saw t=%d, recorded t=%d", i, seen[i], s.T)
		}
	}
	if last := seen[len(seen)-1]; last != out.EndTime {
		t.Errorf("last observation at %d, run ended at %d", last, out.EndTime)
	}
}

// TestSmokeAlgo1Elects is the stack's end-to-end sanity check: Algorithm 1
// under a default AWB run must stabilize on a single correct leader. (The
// identity of the winner is run-dependent: startup suspicions accrued
// before the timers settle decide the lexmin.)
func TestSmokeAlgo1Elects(t *testing.T) {
	const n = 5
	out, err := Execute(Preset{
		Algo: AlgoWriteEfficient, N: n, Seed: 1, Horizon: 200_000,
		AWBProc: 0, Tau1: 1_000, Delta: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Stable {
		t.Fatalf("no stabilization; last sample %+v", out.Samples[len(out.Samples)-1])
	}
	t.Logf("stabilized at t=%d on leader %d (end=%d)", out.StabTime, out.Leader, out.EndTime)
	if out.Leader < 0 || out.Leader >= n || out.Crashed[out.Leader] {
		t.Errorf("leader = %d, want a correct process id", out.Leader)
	}
}

// TestSmokeAlgo1CrashRecovery crashes the initial leader mid-run; the
// survivors must converge on a correct leader.
func TestSmokeAlgo1CrashRecovery(t *testing.T) {
	out, err := Execute(Preset{
		Algo: AlgoWriteEfficient, N: 5, Seed: 7, Horizon: 400_000,
		AWBProc: 1, Tau1: 1_000, Delta: 8,
		Crash: map[int]vclock.Time{0: 50_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Stable {
		t.Fatalf("no stabilization after crash")
	}
	t.Logf("stabilized at t=%d on leader %d", out.StabTime, out.Leader)
	if out.Leader == 0 {
		t.Errorf("elected the crashed process 0")
	}
}
