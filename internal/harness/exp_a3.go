package harness

import (
	"fmt"

	"omegasm/internal/engine"
	"omegasm/internal/shmem"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "A3",
		Title: "Necessity of AWB1: the leader-chasing adversary",
		Paper: "assumption AWB1 (Section 2.3); complements the AWB2 negative control",
		Run:   runA3,
	})
}

// runA3 shows AWB1 is load-bearing by persecuting the leader. An
// on-sample callback tracks the current leader estimate; the Chase pacing
// stalls whichever process is being followed:
//
//   - bounded chase (fixed stall): every process still satisfies AWB1
//     with delta = the stall bound, so Omega must — and does — stabilize:
//     the watchers' timeouts grow with each suspicion (line 27) until
//     they outlast the stall, ending the persecution (Lemma 2's race,
//     with the adversary losing);
//   - growing chase (stalls double forever): whoever leads suffers
//     unbounded outages, so no process satisfies AWB1 and the run leaves
//     the assumption's hypothesis class; leadership churns for the whole
//     horizon.
//
// Together with the Broken-timer negative control (AWB2, in the test
// suite), this pins both halves of the AWB assumption as necessary for
// the implementation to work.
func runA3(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(800_000)
	n := 4

	report := &trace.Report{}
	tbl := &stats.Table{
		Title:  "A3: Algorithm 1 under the leader-chasing adversary",
		Header: []string{"chase", "stabilized", "stab time", "late leader changes", "max suspicions"},
		Caption: "bounded chase: fixed 100-tick stalls on the current leader; growing chase: " +
			"stalls double forever. Timers settle at horizon/16.",
	}

	type chaseKind struct {
		name string
		grow bool
	}
	outcomes := map[string]*RunOutcome{}
	for _, kind := range []chaseKind{{"bounded", false}, {"growing", true}} {
		target := -1
		p := defaultPreset(AlgoWriteEfficient, n, 13, horizon)
		p.Tau1 = horizon / 16
		p.Timers = advTimersAt(n, p.Seed, horizon/16)
		// The chase replaces the default pacing; AWB1 clamping must not
		// rescue the chased process, so no process is clamped.
		p.AWBProc = -1
		p.Pacing = make([]engine.Pacing, n)
		for i := 0; i < n; i++ {
			p.Pacing[i] = &engine.Chase{
				Self:   i,
				Target: &target,
				Base:   engine.OwnRng{Rng: newRng(p.Seed, 400+i), P: engine.Uniform{Min: 1, Max: 8}},
				Stall:  100,
				Grow:   kind.grow,
			}
		}
		// The adversary observes the run: chase whoever the lowest-id
		// live process currently follows.
		p.OnSample = func(_ shmem.Mem, s trace.Sample) {
			target = -1
			for _, l := range s.Leaders {
				if l != -1 {
					target = l
					break
				}
			}
		}
		out, err := Execute(p)
		if err != nil {
			return nil, err
		}
		outcomes[kind.name] = out

		var maxSusp uint64
		for _, r := range out.End.Regs {
			if r.Class == "SUSPICIONS" && r.MaxValue > maxSusp {
				maxSusp = r.MaxValue
			}
		}
		tbl.AddRow(kind.name, fmt.Sprintf("%v", out.Stable),
			fmt.Sprintf("%d", out.StabTime),
			stats.I(trace.LeaderChangesAfter(out.Samples, horizon*3/4)),
			stats.U(maxSusp))
	}

	report.Add("A3/boundedChaseStabilizes", outcomes["bounded"].Stable,
		"with bounded stalls AWB1 still holds and the election completes")
	growing := outcomes["growing"]
	churn := trace.LeaderChangesAfter(growing.Samples, horizon*3/4)
	report.Add("A3/growingChaseChurns", !growing.Stable || churn > 0,
		fmt.Sprintf("unbounded persecution defeats the election (stable=%v, late churn=%d): AWB1 is necessary",
			growing.Stable, churn))
	return &Outcome{Tables: []*stats.Table{tbl}, Report: report}, nil
}
