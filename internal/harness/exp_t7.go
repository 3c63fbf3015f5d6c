package harness

import (
	"fmt"

	"omegasm/internal/stats"
	"omegasm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "T7",
		Title: "Shared-memory operation complexity, before and after stabilization",
		Paper: "implicit (the cost model behind Section 3.4's read/write optimality)",
		Run:   runT7,
	})
}

// runT7 measures the read/write cost structure the optimality section
// reasons about: for each algorithm, the rate of register reads and
// writes system-wide during the anarchy phase (up to stabilization) and
// during the steady state (after it). The paper's results predict the
// steady-state column shapes:
//
//   - writes/ktick: algo1-family ~ the leader's step rate only; algo2 ~
//     n times higher (the handshake acknowledgements); baseline ~ n
//     heartbeats;
//   - reads/ktick: everyone scans forever in all algorithms (Lemma 6 and
//     the quasi-optimality remark after Theorem 4): reads dominate
//     writes by the n^2 suspicion scan in every T2 iteration.
func runT7(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(400_000)
	seeds := cfg.seeds()
	n := 5

	report := &trace.Report{}
	tbl := &stats.Table{
		Title: "T7: shared-memory operations per 1000 ticks (means over seeds, n=5)",
		Header: []string{"algorithm", "anarchy reads", "anarchy writes",
			"steady reads", "steady writes", "read/write ratio (steady)"},
		Caption: "anarchy = start..stabilization; steady = last quarter. " +
			"Reads stay heavy forever (Lemma 6); writes collapse per Theorem 3 / stay up per Corollary 1.",
	}

	type rates struct{ ar, aw, sr, sw []float64 }
	perAlgo := map[Algo]*rates{}
	for _, algo := range Algos {
		r := &rates{}
		perAlgo[algo] = r
		for seed := int64(1); seed <= int64(seeds); seed++ {
			out, err := Execute(defaultPreset(algo, n, seed, horizon))
			if err != nil {
				return nil, err
			}
			if !out.StableBeforeMid() {
				continue
			}
			var anarchyR, anarchyW, steadyR, steadyW uint64
			// Anarchy window approximated by the midpoint snapshot minus
			// the suffix; more precisely we use [0, mid] vs [mid, end]
			// and report the suffix as "steady" (stabilization happened
			// before mid by construction).
			for _, reg := range out.Mid.Regs {
				anarchyR += reg.TotalReads()
				anarchyW += reg.TotalWrites()
			}
			suffix := out.Suffix()
			for _, reg := range suffix.Regs {
				steadyR += reg.TotalReads()
				steadyW += reg.TotalWrites()
			}
			anarchyLen := float64(out.MidTime)
			steadyLen := float64(out.EndTime - out.MidTime)
			if anarchyLen > 0 {
				r.ar = append(r.ar, float64(anarchyR)/anarchyLen*1000)
				r.aw = append(r.aw, float64(anarchyW)/anarchyLen*1000)
			}
			if steadyLen > 0 {
				r.sr = append(r.sr, float64(steadyR)/steadyLen*1000)
				r.sw = append(r.sw, float64(steadyW)/steadyLen*1000)
			}
		}
		mean := func(xs []float64) float64 { return stats.Summarize(xs).Mean }
		ratio := "-"
		if mean(r.sw) > 0 {
			ratio = stats.F(mean(r.sr) / mean(r.sw))
		}
		tbl.AddRow(string(algo),
			stats.F(mean(r.ar)), stats.F(mean(r.aw)),
			stats.F(mean(r.sr)), stats.F(mean(r.sw)), ratio)
	}

	mean := func(xs []float64) float64 { return stats.Summarize(xs).Mean }
	a1, a2 := perAlgo[AlgoWriteEfficient], perAlgo[AlgoBounded]
	report.Add("T7/algo2WritesMore", mean(a2.sw) > 2*mean(a1.sw),
		fmt.Sprintf("steady writes: algo2 %.1f vs algo1 %.1f per ktick (the bounded-memory price)",
			mean(a2.sw), mean(a1.sw)))
	report.Add("T7/readsNeverStop", mean(a1.sr) > 0 && mean(a2.sr) > 0,
		"steady read rates positive for both algorithms (Lemma 6)")
	report.Add("T7/readsDominate", mean(a1.sr) > mean(a1.sw),
		fmt.Sprintf("algo1 steady reads %.1f > writes %.1f (the n^2 suspicion scan)",
			mean(a1.sr), mean(a1.sw)))
	return &Outcome{Tables: []*stats.Table{tbl}, Report: report}, nil
}
