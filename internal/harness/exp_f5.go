package harness

import (
	"fmt"

	"omegasm/internal/stats"
	"omegasm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "F5",
		Title: "Algorithm 2: all shared variables bounded; write set after stabilization",
		Paper: "Figure 5 / Theorems 6, 7; Corollary 1",
		Run:   runF5,
	})
}

// runF5 regenerates the claims around Figure 5: running Algorithm 2 over
// AWB runs (with and without crashes),
//
//   - Theorem 6: every shared variable stays in a bounded domain — the
//     handshake booleans are 1-bit for the whole run and the SUSPICIONS
//     counters stop changing after stabilization;
//   - Theorem 7: in the post-stabilization window, the only registers
//     whose value changes are PROGRESS[ell][*] (written by the leader) and
//     LAST[ell][i] (written by each correct watcher i);
//   - Corollary 1: every correct process writes forever.
//
// The table reports the shared-memory footprint and the post-stabilization
// writer census per run.
func runF5(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(400_000)
	seeds := cfg.seeds()
	report := &trace.Report{}
	tbl := &stats.Table{
		Title:  "F5: Algorithm 2 boundedness and post-stabilization write set",
		Header: []string{"n", "crashes", "seed", "leader", "footprint(bits)", "suffix writers", "suffix regs changed"},
		Caption: "footprint = total bits across all shared registers over the whole run " +
			"(Theorem 6); suffix = last quarter of the horizon.",
	}

	n := 5
	for _, crashes := range []int{0, 2} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			p := defaultPreset(AlgoBounded, n, seed, horizon)
			p.Crash = crashSchedule(crashes, horizon)
			out, err := Execute(p)
			if err != nil {
				return nil, err
			}
			tag := fmt.Sprintf("crashes=%d seed=%d", crashes, seed)
			if !out.StableBeforeMid() {
				report.Add("F5/stabilized "+tag, false,
					fmt.Sprintf("stable=%v stabTime=%d mid=%d", out.Stable, out.StabTime, out.MidTime))
				continue
			}
			suffix := out.Suffix()
			trace.CheckBoundedMemory(report, out.End, out.Mid)
			trace.CheckAlgo2WriteSet(report, suffix, out.Leader, out.Crashed)
			trace.CheckAllCorrectWriteForever(report, suffix, out.Crashed)
			trace.CheckReadersForever(report, suffix, out.Leader, out.Crashed)
			tbl.AddRow(stats.I(n), stats.I(crashes), fmt.Sprintf("%d", seed),
				stats.I(out.Leader), stats.I(out.End.TotalBits()),
				fmt.Sprintf("%v", suffix.Writers()),
				stats.I(len(suffix.ChangedRegisters())))
		}
	}
	return &Outcome{Tables: []*stats.Table{tbl}, Report: report}, nil
}
