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
		ID:    "T5",
		Title: "Sensitivity sweeps: election latency vs n, delta, timer settle, crashes",
		Paper: "implicit (performance behavior of Figure 2 across the AWB parameter space)",
		Run:   runT5,
	})
}

// runT5 sweeps the AWB parameter space and reports Algorithm 1's election
// latency (median over seeds):
//
//   - system size n: latency grows mildly with n (more registers to scan,
//     more suspicion noise at startup);
//   - AWB1 bound delta: latency is insensitive to delta once below the
//     timer scale (the bound only needs to beat the timeout growth);
//   - timer settle time tau_f: latency is dominated by the misbehaving
//     prefix — stabilization tracks the settle point, the paper's
//     "arbitrarily long (but finite) periods";
//   - crash recovery: time from the leader's crash to re-stabilization.
func runT5(cfg Config) (*Outcome, error) {
	horizon := cfg.horizon(800_000)
	seeds := cfg.seeds()
	report := &trace.Report{}
	var tables []*stats.Table

	median := func(xs []float64) string { return stats.F(stats.Summarize(xs).P50) }

	// Sweep 1: n.
	ns := []int{2, 3, 5, 8, 12, 16}
	if cfg.Quick {
		ns = []int{2, 4, 8}
	}
	tblN := &stats.Table{
		Title:   "T5a: election latency vs system size (Algorithm 1)",
		Header:  []string{"n", "stab p50 (ticks)", "stabilized"},
		Caption: "medians over seeds; AWB adversary with settle at horizon/8.",
	}
	okAll := true
	for _, n := range ns {
		var stabs []float64
		ok := 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			out, err := Execute(defaultPreset(AlgoWriteEfficient, n, seed, horizon))
			if err != nil {
				return nil, err
			}
			if out.Stable {
				ok++
				stabs = append(stabs, float64(out.StabTime))
			} else {
				okAll = false
			}
		}
		tblN.AddRow(stats.I(n), median(stabs), fmt.Sprintf("%d/%d", ok, seeds))
	}
	report.Add("T5a/allSizesStabilize", okAll, fmt.Sprintf("n in %v", ns))
	tables = append(tables, tblN)

	// Sweep 2: delta.
	tblD := &stats.Table{
		Title:   "T5b: election latency vs AWB1 bound delta (Algorithm 1, n=5)",
		Header:  []string{"delta", "stab p50 (ticks)", "stabilized"},
		Caption: "latency is flat in delta: only the timeout-vs-gap race matters (Lemma 2).",
	}
	for _, delta := range []vclock.Duration{2, 8, 32, 128} {
		var stabs []float64
		ok := 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			p := defaultPreset(AlgoWriteEfficient, 5, seed, horizon)
			p.Delta = delta
			out, err := Execute(p)
			if err != nil {
				return nil, err
			}
			if out.Stable {
				ok++
				stabs = append(stabs, float64(out.StabTime))
			}
		}
		tblD.AddRow(fmt.Sprintf("%d", delta), median(stabs), fmt.Sprintf("%d/%d", ok, seeds))
	}
	tables = append(tables, tblD)

	// Sweep 3: timer settle point tau_f.
	tblS := &stats.Table{
		Title:   "T5c: election latency vs timer settle point (Algorithm 1, n=5)",
		Header:  []string{"settle", "stab p50 (ticks)", "stabilized"},
		Caption: "stabilization tracks the end of the timers' misbehaving prefix.",
	}
	settles := []vclock.Time{horizon / 64, horizon / 16, horizon / 8, horizon / 4}
	settleTracks := true
	var prevMedian float64 = -1
	for _, settle := range settles {
		var stabs []float64
		ok := 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			p := defaultPreset(AlgoWriteEfficient, 5, seed, horizon)
			for i := range p.Timers {
				p.Timers[i] = &vclock.Adversarial{
					F:         vclock.Affine{A: 4, B: 1},
					Settle:    settle,
					PrefixMax: 64,
					OscAmp:    16,
					Rng:       newRng(seed, i+100),
				}
			}
			p.Tau1 = settle
			out, err := Execute(p)
			if err != nil {
				return nil, err
			}
			if out.Stable {
				ok++
				stabs = append(stabs, float64(out.StabTime))
			}
		}
		m := stats.Summarize(stabs).P50
		if prevMedian > 0 && m < prevMedian/4 {
			settleTracks = false // latency should not collapse as settle grows
		}
		prevMedian = m
		tblS.AddRow(fmt.Sprintf("%d", settle), median(stabs), fmt.Sprintf("%d/%d", ok, seeds))
	}
	report.Add("T5c/latencyTracksSettle", settleTracks,
		"stabilization latency is monotone-ish in the timers' settle point")
	tables = append(tables, tblS)

	// Sweep 4: incumbent-leader crash recovery. The incumbent is found by
	// a deterministic dry run of the same seed up to the crash time; the
	// real run then crashes exactly that process (the scheduler is
	// deterministic, so the incumbent is the same in both runs).
	tblC := &stats.Table{
		Title:  "T5d: recovery latency after crashing the incumbent leader (Algorithm 1, n=5)",
		Header: []string{"extra crashes", "incumbent crashed", "recover p50 (ticks)", "recovered"},
		Caption: "recovery = re-stabilization time minus the incumbent's crash time; " +
			"extra crashes are staggered after it.",
	}
	// Pacing for the recovery sweep: chaotic heavy-tailed prefix, then
	// every process timely (a run that is *nicer* than AWB requires, so
	// the measured recovery latency isolates detection + re-election
	// rather than adversarial stalls). The pacing is per-process-seeded
	// and identical between the dry and the real run, so the dry run's
	// incumbent is exactly the process the real run crashes.
	recoveryPacing := func(seed int64, tau1 vclock.Time) []engine.Pacing {
		ps := make([]engine.Pacing, 5)
		for i := range ps {
			ps[i] = engine.OwnRng{
				Rng: newRng(seed, 9000+i),
				P: engine.Phase{
					At:     tau1,
					Before: engine.HeavyTail{Min: 1, Max: 8, StallP: 0.02, StallMax: horizon / 64},
					After:  engine.Uniform{Min: 1, Max: 8},
				},
			}
		}
		return ps
	}
	allRecovered := true
	for _, extra := range []int{0, 2} {
		var recov []float64
		ok, incumbentCrashes := 0, 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			crashAt := horizon / 2
			dry := defaultPreset(AlgoWriteEfficient, 5, seed, horizon)
			dry.AWBProc = -1
			dry.Pacing = recoveryPacing(seed, dry.Tau1)
			dry.Horizon = crashAt
			dryOut, err := Execute(dry)
			if err != nil {
				return nil, err
			}
			incumbent := dryOut.Leader
			if !dryOut.Stable || incumbent < 0 {
				continue // no settled incumbent to crash
			}
			p := defaultPreset(AlgoWriteEfficient, 5, seed, horizon)
			p.AWBProc = -1
			p.Pacing = recoveryPacing(seed, p.Tau1)
			p.Crash = map[int]vclock.Time{incumbent: crashAt}
			dead := map[int]bool{incumbent: true}
			next := 0
			for c := 0; c < extra; c++ {
				for dead[next] {
					next++
				}
				p.Crash[next] = crashAt + vclock.Time(c+1)*64
				dead[next] = true
			}
			incumbentCrashes++
			out, err := Execute(p)
			if err != nil {
				return nil, err
			}
			if out.Stable {
				ok++
				r := out.StabTime - crashAt
				if r < 0 {
					r = 0 // survivors already agreed on the new leader
				}
				recov = append(recov, float64(r))
			}
		}
		if ok < incumbentCrashes {
			allRecovered = false
		}
		tblC.AddRow(stats.I(extra), fmt.Sprintf("%d/%d", incumbentCrashes, seeds),
			median(recov), fmt.Sprintf("%d/%d", ok, incumbentCrashes))
	}
	report.Add("T5d/allRecover", allRecovered,
		"every run that crashed its incumbent re-stabilized on a survivor")
	tables = append(tables, tblC)

	return &Outcome{Tables: tables, Report: report}, nil
}
