package harness

import (
	"fmt"

	"omegasm/internal/consensus"
	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/shmem"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

func init() {
	register(Experiment{
		ID:    "T6",
		Title: "Omega drives consensus: replicated log over 1WnR registers",
		Paper: "Section 1 motivation (Omega is the weakest FD for consensus; refs [9],[16],[19])",
		Run:   runT6,
	})
}

// runT6 closes the paper's motivating loop: the elected leader drives
// Disk-Paxos-style consensus over the same 1WnR register model. Each
// process runs Algorithm 1 (the oracle) plus a log replica that proposes
// its commands whenever the oracle names it leader. The run crashes a
// process mid-way (possibly the incumbent leader). Verdicts:
//
//   - Agreement: all correct replicas' committed sequences are mutually
//     consistent prefixes;
//   - Validity: every committed value was submitted by some replica;
//   - Progress: commits keep happening once the oracle stabilizes (the
//     liveness Omega buys).
func runT6(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(800_000)
	n := 5
	const slots = 64
	const cmdsPerReplica = 8

	p := defaultPreset(AlgoWriteEfficient, n, 21, horizon)
	p.Crash = map[int]vclock.Time{1: horizon / 2}

	var replicas []*consensus.Replica
	submitted := make(map[uint32]bool)
	p.Aux = func(mem shmem.Mem, procs []core.Proc, sim *engine.Sim) error {
		log, err := consensus.NewCheckpointLog(mem, n, slots, 1, 0)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			i := i
			oracle := func() int { return procs[i].Leader() }
			r, err := consensus.NewReplica(log, i, oracle)
			if err != nil {
				return err
			}
			for k := 0; k < cmdsPerReplica; k++ {
				cmd := uint32(i*1000 + k + 1)
				r.Submit(cmd)
				submitted[cmd] = true
			}
			replicas = append(replicas, r)
			// The crashed oracle process's replica crashes with it.
			var opts []engine.SimOpt
			if ct, ok := p.Crash[i]; ok {
				opts = append(opts, engine.WithCrashAt(ct))
			}
			sim.Add(engine.AlwaysReady(r), opts...)
		}
		return nil
	}

	out, err := Execute(p)
	if err != nil {
		return nil, err
	}

	report := &trace.Report{}
	report.Add("T6/oracleStabilized", out.Stable,
		fmt.Sprintf("leader=%d at t=%d (process 1 crashed at t=%d)", out.Leader, out.StabTime, horizon/2))

	// Agreement: committed sequences are pairwise prefix-consistent.
	agree := true
	var longest []uint32
	for i, r := range replicas {
		if out.Crashed[i] {
			continue
		}
		c := r.Committed()
		if len(c) > len(longest) {
			longest = c
		}
	}
	for i, r := range replicas {
		if out.Crashed[i] {
			continue
		}
		c := r.Committed()
		for s := range c {
			if c[s] != longest[s] {
				agree = false
			}
		}
	}
	report.Add("T6/agreement", agree, "all correct replicas commit consistent prefixes")

	// Validity: every committed value was submitted.
	valid := true
	for _, v := range longest {
		if !submitted[v] {
			valid = false
		}
	}
	report.Add("T6/validity", valid, fmt.Sprintf("%d slots committed, all from submitted set", len(longest)))
	report.Add("T6/progress", len(longest) > 0,
		fmt.Sprintf("committed %d commands across leader crash", len(longest)))

	tbl := &stats.Table{
		Title:  "T6: replicated log over Omega (n=5, crash at mid-run)",
		Header: []string{"replica", "crashed", "committed", "pending"},
	}
	for i, r := range replicas {
		tbl.AddRow(stats.I(i), fmt.Sprintf("%v", out.Crashed[i]),
			stats.I(len(r.Committed())), stats.I(r.Pending()))
	}
	return &Outcome{Tables: []*stats.Table{tbl}, Report: report}, nil
}
