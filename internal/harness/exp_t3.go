package harness

import (
	"fmt"

	"omegasm/internal/stats"
	"omegasm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "T3",
		Title: "Optimality trade-off: eventual writers vs bounded memory, across algorithms",
		Paper: "Section 3.4 / Section 4 (the inherent trade-off of the Conclusion)",
		Run:   runT3,
	})
}

// runT3 regenerates the paper's central trade-off as a comparison table
// over all implemented algorithms (the paper's two, its Section 3.5
// variants, and the reconstructed eventually-synchronous baseline [13]):
//
//   - eventual writers: how many processes still write in the last
//     quarter of the run (Algorithm 1 and variants: 1, the optimum of
//     Lemma 5; Algorithm 2: all correct, the optimum under bounded memory
//     by Corollary 1; baseline [13]: all correct, although it does not
//     even bound its memory);
//   - eventual readers: Lemma 6's census;
//   - unbounded registers: how many registers kept changing value in the
//     suffix window (Algorithm 1: exactly one, PROGRESS[ell]; Algorithm 2:
//     only 1-bit booleans flip, nothing grows);
//   - memory footprint in bits, and election latency.
func runT3(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(400_000)
	seeds := cfg.seeds()
	n := 5

	report := &trace.Report{}
	tbl := &stats.Table{
		Title: "T3: algorithm comparison (means over seeds, n=5, no crashes)",
		Header: []string{"algorithm", "stab p50", "eventual writers", "eventual readers",
			"growing regs", "footprint(bits)", "suffix writes/ktick"},
		Caption: "eventual = active in the last quarter of the run. growing regs = registers " +
			"whose value still changes in the suffix and that are wider than 1 bit.",
	}

	for _, algo := range Algos {
		var stabs []float64
		var writers, readers, growing, bits, wrate []float64
		stable := true
		for seed := int64(1); seed <= int64(seeds); seed++ {
			p := defaultPreset(algo, n, seed, horizon)
			out, err := Execute(p)
			if err != nil {
				return nil, err
			}
			if !out.StableBeforeMid() {
				stable = false
				continue
			}
			suffix := out.Suffix()
			stabs = append(stabs, float64(out.StabTime))
			writers = append(writers, float64(len(suffix.Writers())))
			readers = append(readers, float64(len(suffix.Readers())))
			g := 0
			for _, r := range suffix.Regs {
				if r.DistinctValues > 0 && out.End.Regs[r.Name].Bits() > 1 {
					g++
				}
			}
			growing = append(growing, float64(g))
			bits = append(bits, float64(out.End.TotalBits()))
			window := float64(out.EndTime - out.MidTime)
			var w uint64
			for _, r := range suffix.Regs {
				w += r.TotalWrites()
			}
			if window > 0 {
				wrate = append(wrate, float64(w)/window*1000)
			}
		}
		report.Add(fmt.Sprintf("T3/%s/stabilized", algo), stable,
			fmt.Sprintf("all %d seeded runs stabilized before the suffix window", seeds))
		tbl.AddRow(string(algo),
			stats.F(stats.Summarize(stabs).P50),
			stats.F(stats.Summarize(writers).Mean),
			stats.F(stats.Summarize(readers).Mean),
			stats.F(stats.Summarize(growing).Mean),
			stats.F(stats.Summarize(bits).Mean),
			stats.F(stats.Summarize(wrate).Mean))
	}

	return &Outcome{Tables: []*stats.Table{tbl}, Report: report,
		Notes: []string{
			"Expected shape (paper Conclusion): algo1/nwnr/timerfree converge to 1 eventual writer",
			"with exactly one growing register; algo2 keeps every correct process writing but",
			"nothing grows; the baseline pays both costs (all write, unbounded heartbeats).",
		}}, nil
}
