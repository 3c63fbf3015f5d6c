package harness

import (
	"fmt"

	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/shmem"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

func init() {
	register(Experiment{
		ID:    "F3",
		Title: "The leader's critical-write sequence S is eventually delta-timely",
		Paper: "Figure 3 / assumption AWB1, Lemma 2",
		Run:   runF3,
	})
}

// runF3 regenerates Figure 3: the sequence S of the AWB1 process's writes
// to its critical registers (PROGRESS[ell], STOP[ell]).
//
// To pin the eventual winner to the AWB1 process p_0 we use the paper's
// footnote 7 (initial register values are arbitrary; the algorithm is
// self-stabilizing with respect to them): every other process starts with
// a large seeded suspicion count. Suspicion totals never decrease, so p_0
// stays the lexicographic minimum as long as its own count stays below
// the handicap — which AWB1 guarantees once its writes are delta-timely.
//
// The table reports the distribution of gaps between consecutive critical
// writes of p_0 before tau_1 (unbounded: the chaotic prefix, with
// heavy-tailed stalls) and after stabilization (<= delta: the AWB1 bound
// that Lemma 2's proof turns into a suspicion bound).
func runF3(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(400_000)
	n := 5
	delta := vclock.Duration(8)
	tau1 := horizon / 8
	const handicap = 1_000_000

	p := Preset{
		N:          n,
		Seed:       3,
		Horizon:    horizon,
		AWBProc:    0,
		Tau1:       tau1,
		Delta:      delta,
		LogClasses: []string{core.ClassProgress, core.ClassStop},
		Build: func(mem shmem.Mem) []core.Proc {
			sh := core.NewShared1(mem, n)
			// Footnote-7 seeding: processes 1..n-1 start with a suspicion
			// handicap recorded in process 0's suspicion row.
			for k := 1; k < n; k++ {
				shmem.SeedIfPossible(sh.Suspicions[0][k], handicap)
			}
			procs := make([]core.Proc, n)
			for i := range procs {
				procs[i] = core.NewAlgo1(sh, i)
			}
			return procs
		},
	}
	p.Pacing = make([]engine.Pacing, n)
	p.Pacing[0] = engine.HeavyTail{Min: 1, Max: 64, StallP: 0.05, StallMax: horizon / 32}
	for i := 1; i < n; i++ {
		p.Pacing[i] = engine.HeavyTail{Min: 1, Max: 8, StallP: 0.02, StallMax: horizon / 64}
	}
	p.Timers = advTimers(n, p.Seed, horizon)

	out, err := Execute(p)
	if err != nil {
		return nil, err
	}
	writeLog, stabTime, leader, stable := out.WriteLog, out.StabTime, out.Leader, out.Stable

	report := &trace.Report{}
	if !stable {
		report.Add("F3/stabilized", false, "run did not stabilize")
		return &Outcome{Report: report}, nil
	}
	report.Add("F3/stabilized", true,
		fmt.Sprintf("leader=%d at t=%d", leader, stabTime))
	report.Add("F3/leaderIsAWBProc", leader == 0,
		fmt.Sprintf("winner=%d, AWB1 process=0 (forced via footnote-7 suspicion seeding)", leader))

	// Gap analysis over the leader's critical writes.
	var pre, post []float64
	var lastPre, lastPost vclock.Time = -1, -1
	for _, ev := range writeLog {
		if ev.Pid != leader {
			continue
		}
		switch {
		case ev.T < tau1:
			if lastPre >= 0 {
				pre = append(pre, float64(ev.T-lastPre))
			}
			lastPre = ev.T
		case ev.T >= stabTime:
			if lastPost >= 0 {
				post = append(post, float64(ev.T-lastPost))
			}
			lastPost = ev.T
		}
	}
	preSum, postSum := stats.Summarize(pre), stats.Summarize(post)
	tbl := &stats.Table{
		Title:  "F3: gaps between consecutive critical writes of p_0 (ticks)",
		Header: []string{"window", "writes", "gap p50", "gap p90", "gap max"},
		Caption: fmt.Sprintf("AWB1 bound delta=%d applies after tau_1=%d; the prefix is unconstrained.",
			delta, tau1),
	}
	tbl.AddRow("before tau_1", stats.I(len(pre)), stats.F(preSum.P50), stats.F(preSum.P90), stats.F(preSum.Max))
	tbl.AddRow("after stabilization", stats.I(len(post)), stats.F(postSum.P50), stats.F(postSum.P90), stats.F(postSum.Max))

	report.Add("AWB1/gapBound", len(post) > 0 && postSum.Max <= float64(delta),
		fmt.Sprintf("max post-stabilization gap %.0f <= delta %d over %d writes",
			postSum.Max, delta, len(post)))
	report.Add("F3/prefixUnbounded", preSum.Max > float64(delta),
		fmt.Sprintf("prefix max gap %.0f exceeds delta (chaotic prefix allowed)", preSum.Max))

	return &Outcome{Tables: []*stats.Table{tbl}, Report: report}, nil
}
