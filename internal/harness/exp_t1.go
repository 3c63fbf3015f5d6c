package harness

import (
	"fmt"

	"omegasm/internal/shmem"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "T1",
		Title: "Algorithm 1: write efficiency and boundedness",
		Paper: "Theorems 2, 3 (and Lemma 5)",
		Run:   runT1,
	})
}

// runT1 regenerates Theorems 2 and 3 for Algorithm 1: after
// stabilization,
//
//   - exactly one process (the leader) writes shared memory, and the only
//     register it writes is PROGRESS[leader] (Theorem 3);
//   - every other register's value stops changing — all shared variables
//     but PROGRESS[leader] are bounded (Theorem 2);
//   - the leader keeps writing in every suffix window (Lemma 5).
//
// The table reports the per-process write counts in the last quarter of
// each run: a single nonzero row per run is the paper's headline result.
func runT1(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(400_000)
	seeds := cfg.seeds()
	report := &trace.Report{}
	tbl := &stats.Table{
		Title:  "T1: Algorithm 1 per-process writes in the last quarter of the run",
		Header: []string{"n", "crashes", "seed", "leader", "suffix writes by process", "regs written"},
		Caption: "Theorem 3: the suffix writer census is {leader} and the only register " +
			"written is PROGRESS[leader].",
	}

	n := 5
	for _, crashes := range []int{0, 2} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			p := defaultPreset(AlgoWriteEfficient, n, seed, horizon)
			p.Crash = crashSchedule(crashes, horizon)
			out, err := Execute(p)
			if err != nil {
				return nil, err
			}
			tag := fmt.Sprintf("crashes=%d seed=%d", crashes, seed)
			if !out.StableBeforeMid() {
				report.Add("T1/stabilized "+tag, false,
					fmt.Sprintf("stable=%v stabTime=%d mid=%d", out.Stable, out.StabTime, out.MidTime))
				continue
			}
			suffix := out.Suffix()
			trace.CheckWriteEfficiency(report, suffix, out.Leader)
			trace.CheckBoundedExceptProgress(report, suffix, out.Leader)
			trace.CheckReadersForever(report, suffix, out.Leader, out.Crashed)
			tbl.AddRow(stats.I(n), stats.I(crashes), fmt.Sprintf("%d", seed),
				stats.I(out.Leader), fmt.Sprintf("%v", writesByProcess(suffix)),
				fmt.Sprintf("%v", suffix.WrittenRegisters()))
		}
	}
	return &Outcome{Tables: []*stats.Table{tbl}, Report: report}, nil
}

// writesByProcess sums the suffix write counts per process.
func writesByProcess(s *shmem.CensusSnapshot) []uint64 {
	out := make([]uint64, s.N)
	for _, r := range s.Regs {
		for p, w := range r.WritesBy {
			out[p] += w
		}
	}
	return out
}
