package harness

import (
	"fmt"
	"testing"

	"omegasm/internal/core"
	"omegasm/internal/shmem"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

// TestLemma1CrashedLeaveCandidatesForever verifies Lemma 1 operationally:
// after a process crashes, there is a time after which it is absent from
// every live process's candidate set — observable as: no live process's
// leader estimate ever names it again after some sample.
func TestLemma1CrashedLeaveCandidatesForever(t *testing.T) {
	horizon := vclock.Time(200_000)
	for _, algo := range []Algo{AlgoWriteEfficient, AlgoBounded} {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			p := defaultPreset(algo, 5, 3, horizon)
			crashAt := horizon / 4
			p.Crash = map[int]vclock.Time{1: crashAt, 2: crashAt + 100}
			out, err := Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			// Find the last sample at which any live process still named
			// a crashed process; it must be well before the horizon.
			lastNamed := vclock.Time(-1)
			for _, s := range out.Samples {
				for pid, l := range s.Leaders {
					if l == 1 || l == 2 {
						if s.Leaders[pid] != -1 {
							lastNamed = s.T
						}
					}
				}
			}
			if lastNamed >= horizon*3/4 {
				t.Fatalf("a crashed process was still somebody's leader at t=%d", lastNamed)
			}
			t.Logf("crashed processes last named at t=%d (crash at %d)", lastNamed, crashAt)
		})
	}
}

// TestLemma2SuspicionsOfAWBProcessBounded verifies Lemma 2: the total
// suspicion count of the AWB1 process stops growing (it is in the paper's
// set B). The adversary keeps stalling everyone else forever.
func TestLemma2SuspicionsOfAWBProcessBounded(t *testing.T) {
	horizon := vclock.Time(300_000)
	p := defaultPreset(AlgoWriteEfficient, 5, 7, horizon)
	out, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	// Suspicions of process 0 in the last quarter: none.
	suffix := out.Suffix()
	var late uint64
	for name, r := range suffix.Regs {
		if r.Class == core.ClassSuspicions && r.DistinctValues > 0 {
			var j, k int
			if _, err := fmt.Sscanf(name, "SUSPICIONS[%d][%d]", &j, &k); err == nil && k == 0 {
				late += r.DistinctValues
			}
		}
	}
	if late > 0 {
		t.Fatalf("AWB1 process gathered %d new suspicions in the suffix window (B would be empty)", late)
	}
}

// TestTheorem1LeaderIsLexminOfB verifies the proof's characterization:
// the elected leader is the process with the (lexicographically) smallest
// final suspicion total among those whose suspicions stopped growing.
func TestTheorem1LeaderIsLexminOfB(t *testing.T) {
	horizon := vclock.Time(200_000)
	for seed := int64(1); seed <= 5; seed++ {
		p := defaultPreset(AlgoWriteEfficient, 5, seed, horizon)
		out, err := Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if !out.StableBeforeMid() {
			t.Fatalf("seed %d: no early stabilization", seed)
		}
		totals := suspicionTotals(out.End, 5)
		grew := suspicionGrowth(out.Suffix(), 5)
		best := -1
		for k := 0; k < 5; k++ {
			if out.Crashed[k] || grew[k] > 0 {
				continue // not in B
			}
			if best == -1 || totals[k] < totals[best] || (totals[k] == totals[best] && k < best) {
				best = k
			}
		}
		if best != out.Leader {
			t.Errorf("seed %d: lexmin of B = %d (totals %v) but leader = %d",
				seed, best, totals, out.Leader)
		}
	}
}

// suspicionTotals sums, per suspected process k, the final values of
// column k of the SUSPICIONS matrix.
func suspicionTotals(s *shmem.CensusSnapshot, n int) []uint64 {
	totals := make([]uint64, n)
	for name, r := range s.Regs {
		if r.Class != core.ClassSuspicions {
			continue
		}
		var j, k int
		if _, err := fmt.Sscanf(name, "SUSPICIONS[%d][%d]", &j, &k); err == nil {
			totals[k] += r.MaxValue
		}
	}
	return totals
}

// suspicionGrowth counts, per suspected process k, the value changes of
// column k within a diff window: nonzero means k is not in the set B.
func suspicionGrowth(diff *shmem.CensusSnapshot, n int) []uint64 {
	grew := make([]uint64, n)
	for name, r := range diff.Regs {
		if r.Class != core.ClassSuspicions {
			continue
		}
		var j, k int
		if _, err := fmt.Sscanf(name, "SUSPICIONS[%d][%d]", &j, &k); err == nil {
			grew[k] += r.DistinctValues
		}
	}
	return grew
}

// TestTerminationProperty: the oracle's Termination property — every
// Leader() invocation returns (trivially true for a state machine, but
// we pin it across the whole run via the invariant checker).
func TestTerminationProperty(t *testing.T) {
	p := defaultPreset(AlgoWriteEfficient, 4, 2, 50_000)
	out, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Invariants.OK() {
		t.Fatalf("invariants: %v", out.Invariants.Violations())
	}
	_ = trace.Verdict{} // package coupling pin
}
