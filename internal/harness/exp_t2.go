package harness

import (
	"fmt"

	"omegasm/internal/shmem"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

func init() {
	register(Experiment{
		ID:    "T2",
		Title: "The leader writes forever; every other correct process reads forever",
		Paper: "Lemmas 5 and 6 (Section 3.4 lower bounds)",
		Run:   runT2,
	})
}

// runT2 regenerates Lemmas 5 and 6 as a windowed census: the run is split
// into 8 equal windows and for each window we record which processes
// wrote and which read. The lemmas predict that in every window after
// stabilization the leader appears in the writer census (Lemma 5) and
// every correct non-leader appears in the reader census (Lemma 6) — not
// just "eventually once", but in every suffix window, which is the
// operational meaning of "forever".
func runT2(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(400_000)
	const windows = 8
	n := 5

	report := &trace.Report{}
	var tables []*stats.Table
	for _, algo := range []Algo{AlgoWriteEfficient, AlgoBounded} {
		p := defaultPreset(algo, n, 5, horizon)
		var snaps []*shmem.CensusSnapshot
		var snapTimes []vclock.Time
		winLen := horizon / windows
		next := winLen
		p.OnSample = func(mem shmem.Mem, s trace.Sample) {
			// The final boundary is covered by the explicit end snapshot
			// below; stopping early avoids a degenerate empty window.
			for s.T >= next && next < horizon {
				snaps = append(snaps, mem.Census().Snapshot())
				snapTimes = append(snapTimes, next)
				next += winLen
			}
		}
		out, err := Execute(p)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, out.End)
		snapTimes = append(snapTimes, out.EndTime)
		stab, leader := out.StabTime, out.Leader
		if !out.Stable {
			report.Add(fmt.Sprintf("T2/%s/stabilized", algo), false, "run did not stabilize")
			continue
		}
		report.Add(fmt.Sprintf("T2/%s/stabilized", algo), true,
			fmt.Sprintf("leader=%d at t=%d", leader, stab))

		tbl := &stats.Table{
			Title:  fmt.Sprintf("T2 (%s): per-window access census", algo),
			Header: []string{"window end", "writers", "readers", "leaderWrote", "allOthersRead"},
			Caption: fmt.Sprintf("leader=%d stabilized at t=%d; Lemma 5/6 assert the last two "+
				"columns are true in every post-stabilization window.", leader, stab),
		}
		okL5, okL6 := true, true
		prev := (*shmem.CensusSnapshot)(nil)
		for i, s := range snaps {
			var diff *shmem.CensusSnapshot
			if prev == nil {
				diff = s
			} else {
				diff = s.Diff(prev)
			}
			prev = s
			writers := diff.Writers()
			readers := diff.Readers()
			leaderWrote := containsInt(writers, leader)
			others := true
			for q := 0; q < n; q++ {
				if q == leader || out.Crashed[q] {
					continue
				}
				if !containsInt(readers, q) {
					others = false
				}
			}
			post := snapTimes[i] > stab+winLen // fully post-stabilization windows
			if post && !leaderWrote {
				okL5 = false
			}
			if post && !others {
				okL6 = false
			}
			tbl.AddRow(fmt.Sprintf("%d", snapTimes[i]), fmt.Sprintf("%v", writers),
				fmt.Sprintf("%v", readers), fmt.Sprintf("%v", leaderWrote),
				fmt.Sprintf("%v", others))
		}
		report.Add(fmt.Sprintf("Lemma5/%s", algo), okL5,
			"leader wrote in every post-stabilization window")
		report.Add(fmt.Sprintf("Lemma6/%s", algo), okL6,
			"every correct non-leader read in every post-stabilization window")
		tables = append(tables, tbl)
	}
	return &Outcome{Tables: tables, Report: report}, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
