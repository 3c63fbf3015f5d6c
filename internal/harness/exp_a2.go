package harness

import (
	"fmt"

	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/shmem"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "A2",
		Title: "Ablation: can the reigning leader stop reading? (open question, Section 5)",
		Paper: "Section 5 open question; complements Lemma 6",
		Run:   runA2,
	})
}

// runA2 probes the paper's open question — "is it possible to design a
// leader algorithm in which there is a time after which the eventual
// leader is not required to read the shared memory?" — by trying the
// obvious shortcut: a leader that stops refreshing suspicion totals once
// it has reigned for a while (the LeaderNoRead ablation).
//
// The schedule is a minimal two-process duel, fully deterministic in
// outline: process 0 wins the initial election (zero suspicions, lexmin
// by id), reigns long past the ablation's blinding threshold, then
// suffers one long outage. Process 1's timer expires during the outage,
// charges a suspicion, and 1 elects itself. When 0 wakes:
//
//   - Algorithm 1's process 0 re-reads the suspicion totals, sees
//     susp[0]=1 > susp[1]=0, and follows process 1 — the run
//     re-stabilizes (and it must: Theorem 1);
//   - the blinded ablation keeps answering "me" forever — a permanent
//     split that violates Eventual Leadership.
//
// Conclusion recorded in EXPERIMENTS.md: the naive answer to the open
// question is no; a reigning leader that merely keeps writing cannot
// stop reading, because demotion is only observable by reading.
func runA2(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(400_000)
	const n = 2

	type variant struct {
		name  string
		build func(mem shmem.Mem) []core.Proc
	}
	variants := []variant{
		{"algo1 (leader reads)", func(mem shmem.Mem) []core.Proc { return core.Procs(core.BuildAlgo1(mem, n)) }},
		{"leaderNoRead ablation", func(mem shmem.Mem) []core.Proc { return core.Procs(core.BuildLeaderNoRead(mem, n, 32)) }},
	}

	report := &trace.Report{}
	tbl := &stats.Table{
		Title:  "A2: one leader outage; does the incumbent ever follow the new leader?",
		Header: []string{"variant", "stabilized", "final estimates (p0,p1)", "late leader changes"},
		Caption: "Process 0 leads, stalls for an epoch, gets suspected. A reading leader " +
			"reconciles on wake-up; a blind one splits forever.",
	}

	outcomes := make([]bool, len(variants))
	for vi, v := range variants {
		p := Preset{
			Algo:    AlgoWriteEfficient,
			N:       n,
			Seed:    9,
			Horizon: horizon,
			AWBProc: 1, // after the outage, process 1 is the timely one
			Tau1:    horizon / 8,
			Delta:   8,
		}
		p.Pacing = []engine.Pacing{
			// Process 0: timely until mid-run, then one outage long
			// enough for process 1's timer to expire several times.
			&engine.StallOnce{
				At:   horizon / 2,
				Dur:  horizon / 8,
				Base: engine.Uniform{Min: 1, Max: 4},
			},
			engine.Uniform{Min: 1, Max: 4},
		}
		p.Build = v.build
		out, err := Execute(p)
		if err != nil {
			return nil, err
		}
		outcomes[vi] = out.Stable
		last := out.Samples[len(out.Samples)-1]
		changes := trace.LeaderChangesAfter(out.Samples, horizon*3/4)
		tbl.AddRow(v.name, fmt.Sprintf("%v", out.Stable),
			fmt.Sprintf("%v", last.Leaders), stats.I(changes))
	}

	report.Add("A2/readingLeaderReconciles", outcomes[0],
		"Algorithm 1 re-stabilizes after the incumbent's outage")
	report.Add("A2/blindLeaderSplitsForever", !outcomes[1],
		"the LeaderNoRead ablation ends with a permanent split: the naive "+
			"answer to the Section 5 open question is no")
	return &Outcome{Tables: []*stats.Table{tbl}, Report: report}, nil
}
