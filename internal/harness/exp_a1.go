package harness

import (
	"fmt"

	"omegasm/internal/core"
	"omegasm/internal/shmem"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

func init() {
	register(Experiment{
		ID:    "A1",
		Title: "Ablation: what the STOP registers buy",
		Paper: "Figure 2 design choice (lines 9, 11, 15, 20-21)",
		Run:   runA1,
	})
}

// runA1 removes the STOP registers from Algorithm 1 (silence becomes the
// only demotion signal) and measures the cost across a churny run in
// which the leadership changes repeatedly (a sequence of leader crashes):
//
//   - with STOP, a demoted process withdraws voluntarily and is never
//     suspected for it: suspicion totals reflect only real outages;
//   - without STOP, every demotion is charged as a suspicion by every
//     watcher, so suspicion registers (and hence timeouts) grow with the
//     churn, inflating recovery time.
//
// Both variants implement Omega in the limit, but the ablation's inflated
// suspicion counts inflate timeouts (line 27), which in a bounded-horizon
// run can push convergence past the end: the measured cost is therefore
// (a) strictly more suspicions, and (b) no more — and typically fewer —
// runs stabilized within the horizon than the real algorithm.
func runA1(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(800_000)
	seeds := cfg.seeds()
	report := &trace.Report{}
	tbl := &stats.Table{
		Title:  "A1: Algorithm 1 vs the NoStop ablation under leadership churn",
		Header: []string{"variant", "stabilized", "stab p50", "total suspicions (mean)", "max timeout (mean)"},
		Caption: "3 staggered crashes force repeated re-elections; suspicions counted over " +
			"the whole run, timeouts from the final timer values.",
	}

	type variant struct {
		name  string
		build func(mem shmem.Mem) []core.Proc
	}
	const n = 6
	variants := []variant{
		{"algo1 (with STOP)", func(mem shmem.Mem) []core.Proc { return core.Procs(core.BuildAlgo1(mem, n)) }},
		{"noStop ablation", func(mem shmem.Mem) []core.Proc { return core.Procs(core.BuildNoStop(mem, n)) }},
	}

	suspTotals := make([]float64, len(variants))
	stableCounts := make([]int, len(variants))
	for vi, v := range variants {
		var stabs, susps, timeouts []float64
		stable := 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			p := defaultPreset(AlgoWriteEfficient, n, seed, horizon)
			p.Crash = map[int]vclock.Time{
				1: horizon / 4,
				2: horizon * 2 / 5,
				3: horizon / 2,
			}
			p.Build = v.build
			out, err := Execute(p)
			if err != nil {
				return nil, err
			}
			if out.Stable {
				stable++
				stabs = append(stabs, float64(out.StabTime))
			}
			snap := out.End
			var total uint64
			for _, r := range snap.Regs {
				if r.Class == core.ClassSuspicions {
					total += r.MaxValue
				}
			}
			susps = append(susps, float64(total))
			// Max timeout proxy: largest suspicion value + 1 (line 27).
			var maxS uint64
			for _, r := range snap.Regs {
				if r.Class == core.ClassSuspicions && r.MaxValue > maxS {
					maxS = r.MaxValue
				}
			}
			timeouts = append(timeouts, float64(maxS+1))
		}
		suspTotals[vi] = stats.Summarize(susps).Mean
		stableCounts[vi] = stable
		tbl.AddRow(v.name, fmt.Sprintf("%d/%d", stable, seeds),
			stats.F(stats.Summarize(stabs).P50),
			stats.F(stats.Summarize(susps).Mean),
			stats.F(stats.Summarize(timeouts).Mean))
	}
	report.Add("A1/algo1/elects", stableCounts[0] == seeds,
		"Algorithm 1 stabilized in every churny run")
	// The ablation's limit-correctness is covered by the core unit test
	// TestNoStopStillElectsInQuietRuns; within a bounded horizon its
	// inflated timeouts legitimately defer convergence, so the in-horizon
	// claim is only "never better than the real algorithm".
	report.Add("A1/stopHelpsConvergence", stableCounts[1] <= stableCounts[0],
		fmt.Sprintf("runs stabilized within horizon: with STOP %d/%d >= without %d/%d",
			stableCounts[0], seeds, stableCounts[1], seeds))
	report.Add("A1/stopReducesSuspicions", suspTotals[0] < suspTotals[1],
		fmt.Sprintf("mean total suspicions: with STOP %.1f < without %.1f",
			suspTotals[0], suspTotals[1]))
	return &Outcome{Tables: []*stats.Table{tbl}, Report: report}, nil
}
