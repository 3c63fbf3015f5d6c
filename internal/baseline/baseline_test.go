package baseline_test

import (
	"testing"

	"omegasm/internal/baseline"
	"omegasm/internal/harness"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

func runBaseline(t *testing.T, p harness.Preset) *harness.RunOutcome {
	t.Helper()
	p.Algo, p.AWBProc = harness.AlgoBaseline, -1
	out, err := harness.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBaselineElectsUnderEventualSynchrony: the baseline's home turf —
// every process eventually timely — elects the lowest-id process.
func TestBaselineElectsUnderEventualSynchrony(t *testing.T) {
	out := runBaseline(t, harness.Preset{N: 4, Seed: 1, Horizon: 100_000})
	if !out.Stable {
		t.Fatal("baseline did not stabilize under eventual synchrony")
	}
	t.Logf("leader %d at t=%d", out.Leader, out.StabTime)
}

// TestBaselineCrashRecovery: survivors re-elect after the leader crashes.
func TestBaselineCrashRecovery(t *testing.T) {
	out := runBaseline(t, harness.Preset{
		N: 4, Seed: 2, Horizon: 200_000,
		Crash: map[int]vclock.Time{0: 50_000},
	})
	if !out.Stable {
		t.Fatal("no recovery after crash")
	}
	if out.Leader == 0 {
		t.Fatal("crashed process still elected")
	}
}

// TestBaselineEveryoneWritesForever: the cost the paper's Algorithm 1
// eliminates — all correct baseline processes keep writing heartbeats.
func TestBaselineEveryoneWritesForever(t *testing.T) {
	out := runBaseline(t, harness.Preset{N: 4, Seed: 3, Horizon: 100_000})
	if out.Mid == out.End {
		t.Fatal("no midpoint snapshot")
	}
	suffix := out.Suffix()
	writers := suffix.Writers()
	if len(writers) != 4 {
		t.Fatalf("suffix writers = %v, want all 4 (heartbeats never stop)", writers)
	}
}

// TestBaselineHeartbeatsUnbounded: the baseline's registers grow without
// bound — the other cost, contrasting with Algorithm 2's Theorem 6.
func TestBaselineHeartbeatsUnbounded(t *testing.T) {
	snap := runBaseline(t, harness.Preset{N: 3, Seed: 4, Horizon: 50_000}).End
	for i := 0; i < 3; i++ {
		name := shmem.RegName(baseline.ClassHeartbeat, i)
		if snap.Regs[name].MaxValue < 1000 {
			t.Errorf("%s = %d; heartbeats should have grown into the thousands", name, snap.Regs[name].MaxValue)
		}
	}
}

func TestBaselineProcBasics(t *testing.T) {
	mem := shmem.NewSimMem(3)
	ps := baseline.Build(mem, 3)
	if ps[1].ID() != 1 {
		t.Errorf("ID() = %d", ps[1].ID())
	}
	if ps[1].Leader() != 1 {
		t.Errorf("initial Leader() = %d, want self", ps[1].Leader())
	}
	// One step: heartbeat written, leader recomputed to lexmin (0).
	ps[1].Step(0)
	if got := ps[1].Leader(); got != 0 {
		t.Errorf("Leader() after step = %d, want 0", got)
	}
	// Timer: silence suspects; alive[0] false drops 0 from leadership.
	ps[1].OnTimer(0) // sees hb[0]=0 unchanged? initial last=0, hb=0 -> suspect
	if got := ps[1].Leader(); got != 1 {
		t.Errorf("Leader() after suspecting all = %d, want self", got)
	}
}
