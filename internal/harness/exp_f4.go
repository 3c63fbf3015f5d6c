package harness

import (
	"fmt"

	"omegasm/internal/engine"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

func init() {
	register(Experiment{
		ID:    "F4",
		Title: "Bounded memory + silent non-leaders cannot implement Omega",
		Paper: "Figure 4 / Theorem 5, Corollary 1",
		Run:   runF4,
	})
}

// runF4 operationalizes the Figure 4 lower-bound construction. Theorem 5's
// proof builds runs in which a bounded shared memory keeps revisiting the
// same state S, so processes reading it cannot distinguish a live lockstep
// leader from a crashed one. We realize exactly that schedule:
//
//   - every process is paced Fixed{1} (synchronous — the proof's runs are
//     synchronous after the prefix, so the failure is NOT an asynchrony
//     artifact);
//   - every timer is PhaseLocked with period Mod*1 ticks: a legal AWB
//     behavior (expiries are rounded UP above f), yet every observation of
//     the strawman's mod-Mod heartbeat lands on the same phase and reads
//     the same value — the recurring state S of the proof.
//
// Under this schedule the strawman (bounded wrap-around heartbeats,
// saturating suspicions, silent non-leaders) never stabilizes, while
// Algorithms 1 and 2 — run under the *identical* adversary — stabilize:
// Algorithm 1 because its unbounded PROGRESS counter never revisits a
// state, Algorithm 2 because its handshake is watcher-specific and
// acknowledged, so every correct process keeps writing (Corollary 1's
// price, paid by design).
func runF4(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(400_000)
	n := 4
	const mod = 4

	mkPreset := func(algo Algo) Preset {
		p := Preset{
			Algo:         algo,
			N:            n,
			Seed:         11,
			Horizon:      horizon,
			AWBProc:      0,
			Tau1:         horizon / 16,
			Delta:        1,
			StrawMod:     mod,
			StrawSuspCap: 8,
		}
		p.Pacing = make([]engine.Pacing, n)
		p.Timers = make([]vclock.Behavior, n)
		for i := 0; i < n; i++ {
			p.Pacing[i] = engine.Fixed{D: 1}
			p.Timers[i] = vclock.PhaseLocked{
				F:      vclock.Affine{A: 4, B: 1},
				Period: mod,                // one heartbeat wrap per observation period
				Offset: vclock.Duration(i), // distinct phases per watcher
			}
		}
		return p
	}

	report := &trace.Report{}
	tbl := &stats.Table{
		Title:  "F4: the Theorem 5 adversary (recurring memory state S)",
		Header: []string{"algorithm", "bounded mem", "stabilized", "leader changes (last 25%)"},
		Caption: "Same schedule for all rows: Fixed{1} pacing, PhaseLocked AWB timers. " +
			"The bounded strawman thrashes forever; the paper's algorithms stabilize.",
	}

	type rowResult struct {
		algo    Algo
		bounded string
		out     *RunOutcome
		changes int
	}
	var rows []rowResult
	for _, algo := range []Algo{AlgoStrawman, AlgoWriteEfficient, AlgoBounded} {
		out, err := Execute(mkPreset(algo))
		if err != nil {
			return nil, err
		}
		changes := trace.LeaderChangesAfter(out.Samples, horizon*3/4)
		bounded := "yes"
		if algo == AlgoWriteEfficient {
			bounded = "all but one"
		}
		rows = append(rows, rowResult{algo, bounded, out, changes})
		tbl.AddRow(string(algo), bounded, fmt.Sprintf("%v", out.Stable), stats.I(changes))
	}

	straw, a1, a2 := rows[0], rows[1], rows[2]
	report.Add("Thm5/strawmanFails", !straw.out.Stable || straw.changes > 0,
		fmt.Sprintf("strawman stable=%v, late leader changes=%d (must thrash)",
			straw.out.Stable, straw.changes))
	report.Add("Thm5/algo1SurvivesAdversary", a1.out.Stable,
		fmt.Sprintf("Algorithm 1 stabilized at t=%d (unbounded PROGRESS defeats state recurrence)", a1.out.StabTime))
	report.Add("Thm5/algo2SurvivesAdversary", a2.out.Stable,
		fmt.Sprintf("Algorithm 2 stabilized at t=%d (acknowledged handshake defeats state recurrence)", a2.out.StabTime))

	// Corollary 1 on Algorithm 2 under this adversary: every correct
	// process still writes in the suffix window.
	if a2.out.StableBeforeMid() {
		trace.CheckAllCorrectWriteForever(report, a2.out.Suffix(), a2.out.Crashed)
	}

	return &Outcome{Tables: []*stats.Table{tbl}, Report: report}, nil
}
