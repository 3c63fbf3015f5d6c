package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"omegasm"
	"omegasm/check"
)

// sim_campaign: the deterministic side of the repo. Every slice sweeps
// simSeedsPerSlice seeds over the nine points of DefaultCampaignGrid,
// each run recorded under the virtual-time engine and verified by the
// history checker. Virtual-time results and counters are exact for a
// seed, so this workload's end-to-end face is what the simulated clients
// saw, and its wall-clock speed is a per-layer number.
const (
	simSeedsPerSlice = 4
	simWarmPasses    = 3
	simWarm          = 300 * time.Millisecond // one timed warm pass before measuring
	simTickUS        = 1.0                    // one virtual tick is read as one microsecond
)

// simFixedSlices is how many slices make up the fixed part of a run: the
// slices every run with the same --seconds executes whatever the host's
// speed, and the only ones the exact counters and virtual-time metrics
// are taken from.
func simFixedSlices(seconds float64) int { return max(int(seconds/3), 1) }

// simTotals accumulates the exact results of a set of runs.
type simTotals struct {
	runs              int64
	commits           int64
	leaderChanges     int64
	nearMissRuns      int64
	undecided         int64
	stalls            []float64 // CommitStallMax per run, virtual ms
	hash              [32]byte  // chained sha256 of every history's canonical bytes
	simkvNS, verifyNS int64
	// held collects every result when keep is set, for the live-heap
	// reading.
	keep bool
	held []*omegasm.SimKVResult
}

// simSweep runs one slice: every grid point times simSeedsPerSlice
// seeds, stopping early once a non-zero deadline has passed.
func simSweep(e env, o *outcome, slice int, tot *simTotals, deadline time.Time) error {
	sliceSpan := e.tr.begin("sim.slice", 0, int64(slice))
	defer e.tr.end(sliceSpan)
	base := e.seed*100_000 + int64(slice*simSeedsPerSlice)
	for p, pt := range omegasm.DefaultCampaignGrid() {
		for s := 0; s < simSeedsPerSlice; s++ {
			op := int64((slice*16+p)*simSeedsPerSlice + s)
			cfg := pt.Config
			cfg.Seed = base + int64(s)
			cfg.Record = true
			root := e.tr.begin("campaign.run", sliceSpan, op)
			t0 := time.Now()
			sp := e.tr.begin("omegasm.SimKV", root, op)
			res, err := omegasm.SimKV(cfg)
			e.tr.end(sp)
			if err != nil {
				return fmt.Errorf("sim: point %q seed %d: %w", pt.Name, cfg.Seed, err)
			}
			t1 := time.Now()
			sp = e.tr.begin("check.Verify", root, op)
			v := res.Verify(check.Options{})
			e.tr.end(sp)
			t2 := time.Now()
			e.tr.end(root)

			if !deadline.IsZero() && t2.After(deadline) {
				return nil
			}
			o.attempted++
			if len(v.Violations) > 0 || len(res.LeaseViolations) > 0 {
				o.fail("sim point %q seed %d: %d violations, first: %v", pt.Name, cfg.Seed,
					len(v.Violations)+len(res.LeaseViolations), append(v.Violations, res.LeaseViolations...)[0])
			}
			if tot == nil {
				continue
			}
			tot.runs++
			if tot.keep {
				tot.held = append(tot.held, res)
			}
			tot.commits += int64(res.CommittedTotal)
			tot.leaderChanges += int64(res.LeaderChanges)
			if len(v.NearMisses) > 0 {
				tot.nearMissRuns++
			}
			tot.undecided += int64(len(v.Undecided))
			tot.stalls = append(tot.stalls, float64(res.CommitStallMax)*simTickUS/1000)
			h := sha256.New()
			h.Write(tot.hash[:])
			h.Write(res.History.Canonical())
			h.Sum(tot.hash[:0])
			tot.simkvNS += int64(t1.Sub(t0))
			tot.verifyNS += int64(t2.Sub(t1))
		}
	}
	return nil
}

func runSim(e env) (*outcome, error) {
	o := newOutcome()
	// Set-up, three times over: a timed warm pass of unmeasured sweeps, so
	// the measured part starts with the heap grown and the code paged in.
	// The warm sweeps use seeds the measured slices do not.
	for pass := 0; pass < simWarmPasses; pass++ {
		t0 := time.Now()
		for w := 0; time.Since(t0) < simWarm; w++ {
			if err := simSweep(env{seed: e.seed}, newOutcome(), 1_000*(pass+1)+w, nil, t0.Add(simWarm)); err != nil {
				return nil, err
			}
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}

	// The fixed slices' recorded results stay reachable, as they would for
	// a campaign user building a report, and the live-heap reading is
	// taken with them held; with nothing held it would be the runtime's
	// own few dozen KB, which repeat to no better than 3%.
	fixedSlices := simFixedSlices(e.seconds)
	fixed := &simTotals{keep: true}
	var firstHash [32]byte
	m0 := mallocs()
	start := time.Now()
	var rates []float64
	slices := 0
	for ; slices < fixedSlices || time.Since(start).Seconds() < e.seconds; slices++ {
		tot := &simTotals{}
		if slices < fixedSlices {
			tot = fixed
		}
		before, s0 := tot.runs, time.Now()
		if err := simSweep(e, o, slices, tot, time.Time{}); err != nil {
			return nil, err
		}
		rates = append(rates, float64(tot.runs-before)/time.Since(s0).Seconds())
		if slices == 0 {
			firstHash = fixed.hash
		}
	}
	o.allocs = mallocs() - m0
	o.ops = o.attempted

	// Determinism oracle: slice 0 again must reproduce its history hash.
	replay := &simTotals{}
	o.attempted++
	if err := simSweep(env{seed: e.seed}, newOutcome(), 0, replay, time.Time{}); err != nil {
		return nil, err
	}
	if replay.hash != firstHash {
		o.fail("sim: slice 0 replayed to a different history hash")
	}
	o.heapMB = liveHeapMB()
	runtime.KeepAlive(fixed.held)

	o.schedule = binary.LittleEndian.Uint64(fixed.hash[:8])
	// The stalls are whole ticks and their median is 2012 of them in nearly
	// every run; the interquartile mean is the same kind of centre and
	// still moves when the runs do.
	o.e2e["wait_p50_ms"] = sample{midmean(fixed.stalls), fixed.runs}
	o.layer["sim.stall_p90_ms"] = sample{quantile(fixed.stalls, 0.9), fixed.runs}
	o.layer["sim.runs_per_s"] = sample{quantile(rates, 0.75), int64(len(rates))}
	o.layer["sim.simkv_ms_per_run"] = sample{float64(fixed.simkvNS) / 1e6 / float64(fixed.runs), fixed.runs}
	o.layer["check.verify_ms_per_run"] = sample{float64(fixed.verifyNS) / 1e6 / float64(fixed.runs), fixed.runs}
	o.layer["sim.commits_total"] = sample{float64(fixed.commits), fixed.runs}
	o.layer["sim.leader_changes_total"] = sample{float64(fixed.leaderChanges), fixed.runs}
	o.layer["sim.near_miss_runs"] = sample{float64(fixed.nearMissRuns), fixed.runs}
	o.layer["sim.undecided_total"] = sample{float64(fixed.undecided), fixed.runs}
	// 48 bits of the chained hash: a float64 holds them exactly.
	o.layer["sim.history_hash48"] = sample{float64(binary.LittleEndian.Uint64(fixed.hash[:8]) & (1<<48 - 1)), fixed.runs}
	return o, nil
}
