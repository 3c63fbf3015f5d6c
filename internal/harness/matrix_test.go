package harness

import (
	"fmt"
	"testing"

	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/shmem"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

// TestConvergenceMatrix is the repository's broad correctness sweep: every
// Omega implementation must satisfy Eventual Leadership on AWB runs across
// sizes, seeds, and crash counts up to n-1 (the paper's t).
func TestConvergenceMatrix(t *testing.T) {
	horizon := vclock.Time(150_000)
	for _, algo := range Algos {
		for _, n := range []int{2, 4, 7} {
			for _, crashes := range crashPatterns(n) {
				algo, n, crashes := algo, n, crashes
				name := fmt.Sprintf("%s/n=%d/crashes=%d", algo, n, crashes)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					for seed := int64(1); seed <= 3; seed++ {
						p := defaultPreset(algo, n, seed, horizon)
						p.Crash = crashSchedule(crashes, horizon)
						out, err := Execute(p)
						if err != nil {
							t.Fatal(err)
						}
						if !out.Invariants.OK() {
							t.Errorf("seed %d: invariant violations: %v", seed, out.Invariants.Violations())
						}
						if !out.Stable {
							t.Errorf("seed %d: no stabilization", seed)
							continue
						}
						if out.Leader < 0 || out.Crashed[out.Leader] {
							t.Errorf("seed %d: elected leader %d invalid/crashed", seed, out.Leader)
						}
					}
				})
			}
		}
	}
}

// TestValidityAlways: even before stabilization, every Leader() answer is
// a process identity in range — the oracle's Validity property holds in
// every sample of every run.
func TestValidityAlways(t *testing.T) {
	for _, algo := range Algos {
		p := defaultPreset(algo, 5, 17, 50_000)
		out, err := Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range out.Samples {
			for pid, l := range s.Leaders {
				if l == -1 {
					continue // crashed
				}
				if l < 0 || l >= 5 {
					t.Fatalf("%s: process %d returned out-of-range leader %d at t=%d",
						algo, pid, l, s.T)
				}
			}
		}
	}
}

// TestSelfStabilizationFromGarbage exercises the paper's footnote 7: the
// shared registers may hold arbitrary initial values and the algorithms
// still converge. We fill every register with adversarial garbage before
// construction.
func TestSelfStabilizationFromGarbage(t *testing.T) {
	horizon := vclock.Time(200_000)
	n := 4
	t.Run("algo1", func(t *testing.T) {
		runGarbage(t, n, horizon, func(mem shmem.Mem) []core.Proc {
			sh := core.NewShared1(mem, n)
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					// Garbage suspicions, but small enough that line 27's
					// timeout (max own row + 1) stays inside the horizon.
					shmem.SeedIfPossible(sh.Suspicions[j][k], uint64((j*7+k*13)%50))
				}
				shmem.SeedIfPossible(sh.Progress[j], uint64(j)*1_000_000_007)
				shmem.SeedIfPossible(sh.Stop[j], uint64(j%2))
			}
			procs := make([]core.Proc, n)
			for i := 0; i < n; i++ {
				procs[i] = core.NewAlgo1(sh, i)
			}
			return procs
		})
	})
	t.Run("algo2", func(t *testing.T) {
		runGarbage(t, n, horizon, func(mem shmem.Mem) []core.Proc {
			sh := core.NewShared2(mem, n)
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					shmem.SeedIfPossible(sh.Suspicions[j][k], uint64((j*5+k*11)%50))
					shmem.SeedIfPossible(sh.Progress[j][k], uint64(k%2))
					shmem.SeedIfPossible(sh.Last[j][k], uint64(j%2))
				}
				shmem.SeedIfPossible(sh.Stop[j], uint64((j+1)%2))
			}
			procs := make([]core.Proc, n)
			for i := 0; i < n; i++ {
				procs[i] = core.NewAlgo2(sh, i)
			}
			return procs
		})
	})
}

func runGarbage(t *testing.T, n int, horizon vclock.Time, build func(mem shmem.Mem) []core.Proc) {
	t.Helper()
	out, err := Execute(Preset{
		N: n, Seed: 23, Horizon: horizon,
		AWBProc: 0, Tau1: horizon / 8, Delta: 8,
		Build: build,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Stable {
		t.Fatalf("no stabilization from garbage initial state; last=%v",
			out.Samples[len(out.Samples)-1].Leaders)
	}
	t.Logf("stabilized on %d at t=%d from garbage state", out.Leader, out.StabTime)
}

// TestBrokenTimersBreakLiveness is the negative control: with timers that
// violate AWB2 (constant short expiry regardless of the timeout value)
// and recurring stalls, Algorithm 1 keeps suspecting and never settles —
// demonstrating the algorithms genuinely use the assumption rather than
// being accidentally robust.
func TestBrokenTimersBreakLiveness(t *testing.T) {
	horizon := vclock.Time(300_000)
	n := 4
	p := defaultPreset(AlgoWriteEfficient, n, 31, horizon)
	for i := 0; i < n; i++ {
		// Constant 8-tick expiry: far below the recurring stalls, and
		// deaf to the growing timeout values (violates f2/f3).
		p.Timers[i] = vclock.Broken{Short: 8}
		// Every process stalls regularly, forever.
		p.Pacing[i] = engine.HeavyTail{Min: 1, Max: 8, StallP: 0.05, StallMax: 4_000}
	}
	p.AWBProc = -1 // no pacing rescue for anyone
	out, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	churn := trace.LeaderChangesAfter(out.Samples, horizon/2)
	if out.Stable && churn == 0 {
		t.Fatalf("run with AWB2-violating timers stabilized (leader=%d); "+
			"the assumption appears unused", out.Leader)
	}
	t.Logf("as predicted: stable=%v, late churn=%d", out.Stable, churn)
}

// TestElectionPrefersLessSuspected: across seeds, the eventually elected
// process is one whose total suspicion count is (weakly) minimal among
// correct processes — the lexmin rule observed end to end.
func TestElectionPrefersLessSuspected(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := defaultPreset(AlgoWriteEfficient, 5, seed, 150_000)
		out, err := Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Stable {
			t.Fatalf("seed %d: no stabilization", seed)
		}
		totals := make([]uint64, 5)
		for _, r := range out.End.Regs {
			if r.Class == core.ClassSuspicions {
				var j, k int
				if _, err := fmt.Sscanf(r.Name, "SUSPICIONS[%d][%d]", &j, &k); err == nil {
					totals[k] += r.MaxValue
				}
			}
		}
		for k := 0; k < 5; k++ {
			if out.Crashed[k] {
				continue
			}
			if totals[k] < totals[out.Leader] {
				t.Errorf("seed %d: leader %d has %d suspicions but correct process %d has %d",
					seed, out.Leader, totals[out.Leader], k, totals[k])
			}
		}
	}
}
