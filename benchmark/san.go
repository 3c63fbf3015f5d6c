package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"omegasm"
)

// san_paced_mix: a live KV over five simulated disks with an injected
// 200-300us delay per disk operation. A serial Put costs some hundred
// quorum accesses, so its latency is set by the injected delay times the
// number of accesses the stack makes, not by processor speed.
//
// Each slice has two halves on one fresh store. The serial half is a
// closed loop, one Put after the other: each Put starts where the last
// one ended, so it meets the store's 2ms and 25ms cadences at the same
// phase every time and its median repeats to 2-3%; that median is the
// gated wait. The paced half is the open loop the name refers to, one
// dispatcher on a fixed, seeded schedule, timed from the due time: its
// arrivals meet the cadences at every phase, its waits spread evenly over
// 65-135ms, and its median moved 91-107ms between identical runs, so its
// numbers are per-layer.
const (
	sanSlices = 3
	sanGap    = 200 * time.Millisecond // arrival i is due at i*gap + its phase in the jitter window
	sanJitter = 50 * time.Millisecond  // breaks phase lock with the 2ms/25ms timers
	// sanSLO is from the due time (paced) or the send (serial). Under a
	// 1s limit one 30s run in seventy failed two operations of a slice (a
	// Put that outlived its deadline and committed afterwards would make
	// exactly two: itself and the slice's final state). Omega is only
	// eventually stable and a re-election on the SAN takes about a second,
	// so the limit is five and such a Put is a slow success.
	sanSLO      = 5 * time.Second
	sanSerial   = 110 * time.Millisecond // nominal serial Put, sizes the serial half's fixed count
	sanWarmPuts = 5
	sanKeys     = 4096
)

func sanConfig(seed int64) omegasm.SANConfig {
	return omegasm.SANConfig{Disks: 5, BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond, Seed: seed}
}

// openSAN opens a fresh store on the workload's disk farm.
func openSAN(seed int64, opts ...omegasm.Option) (*store, error) {
	return openStore(nil, append([]omegasm.Option{omegasm.WithSAN(sanConfig(seed))}, opts...)...)
}

func runSAN(e env) (*outcome, error) {
	o := newOutcome()
	var sched scheduleHash
	var serial, writes, reads, late []float64 // microseconds
	slices := e.sliceCount(sanSlices)
	sliceDur := time.Duration(e.seconds / float64(slices) * float64(time.Second))
	serialPuts := max(int(sliceDur/2/sanSerial), 3)
	arrivals := max(int(sliceDur/2/sanGap), 3)
	for s := 0; s < slices; s++ {
		rng := rand.New(rand.NewSource(e.seed*7919 + int64(s)))
		sliceSpan := e.tr.begin("san.slice", 0, int64(s))
		t0 := time.Now()
		st, err := openSAN(e.seed*16 + int64(s) + 1)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		model := map[uint16]uint16{}
		// unsure holds the keys of Puts that returned an error: such a
		// write may still commit later, so the final comparison skips them.
		unsure := map[uint16]bool{}
		for i := 0; i < sanWarmPuts; i++ {
			k, v := uint16(rng.Intn(sanKeys)), uint16(rng.Intn(1<<16-1))
			sched.add(uint64(k), uint64(v))
			if err := st.kv.Put(ctx, k, v); err != nil {
				st.close()
				return nil, fmt.Errorf("san: warm put: %w", err)
			}
			model[k] = v
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())

		m0 := mallocs()
		serialSpan := e.tr.begin("san.serial", sliceSpan, int64(s))
		for i := 0; i < serialPuts; i++ {
			k, v := uint16(rng.Intn(sanKeys)), uint16(rng.Intn(1<<16-1))
			sched.add(uint64(k), uint64(v))
			sent := time.Now()
			opCtx, cancel := context.WithDeadline(ctx, sent.Add(sanSLO))
			err := st.kv.Put(opCtx, k, v)
			done := time.Now()
			cancel()
			o.attempted++
			if err != nil {
				o.fail("san slice %d serial put %d: %v", s, i, err)
				unsure[k] = true
				continue
			}
			model[k] = v
			serial = append(serial, durUS(done.Sub(sent)))
		}
		e.tr.end(serialSpan)

		start := time.Now()
		phase0 := rng.Float64()
		lastKey := uint16(0)
		haveKey := false
		for i := 0; i < arrivals; i++ {
			due := start.Add(time.Duration(i)*sanGap + sanPhase(phase0, i))
			k, v := uint16(rng.Intn(sanKeys)), uint16(rng.Intn(1<<16-1))
			read := i%3 == 2 && haveKey
			sched.add(uint64(due.Sub(start)), uint64(k), uint64(v))
			sleepUntil(due)
			sent := time.Now()
			opCtx, cancel := context.WithDeadline(ctx, due.Add(sanSLO))
			o.attempted++
			var opErr error
			name := "san.put"
			if read {
				name = "san.read"
				got, ok, err := st.kv.Read(opCtx, lastKey, omegasm.ReadQuorum)
				opErr = err
				if err == nil && !unsure[lastKey] && (!ok || got != model[lastKey]) {
					opErr = fmt.Errorf("quorum read of key %d = %d,%v, last acknowledged %d", lastKey, got, ok, model[lastKey])
				}
			} else {
				opErr = st.kv.Put(opCtx, k, v)
				if opErr == nil {
					model[k] = v
					lastKey, haveKey = k, true
				} else {
					unsure[k] = true
				}
			}
			done := time.Now()
			cancel()
			op := int64(s*arrivals + i)
			root := e.tr.add(name, sliceSpan, op, due, done)
			e.tr.add("load.late", root, op, due, sent)
			e.tr.add("kv.call", root, op, sent, done)
			late = append(late, durUS(sent.Sub(due)))
			if opErr != nil {
				o.fail("san slice %d arrival %d: %v", s, i, opErr)
				continue
			}
			if read {
				reads = append(reads, durUS(done.Sub(due)))
			} else {
				writes = append(writes, durUS(done.Sub(due)))
			}
		}
		o.allocs += mallocs() - m0
		o.ops += int64(serialPuts + arrivals)

		// Single client, so the store must equal the model exactly.
		o.attempted++
		if snap := st.kv.Snapshot(); !sameState(snap, model, unsure) {
			o.fail("san slice %d: final state differs from the model (%d vs %d keys)", s, len(snap), len(model))
		}
		if s == slices-1 {
			o.heapMB = liveHeapMB()
		}
		st.close()
		e.tr.end(sliceSpan)
	}
	o.schedule = sched.h
	o.e2e["wait_p50_ms"] = sample{quantile(serial, 0.5) / 1000, int64(len(serial))}
	o.layer["san.paced_write_p50_us"] = sample{quantile(writes, 0.5), int64(len(writes))}
	o.layer["san.paced_write_p90_us"] = sample{quantile(writes, 0.9), int64(len(writes))}
	o.layer["san.paced_read_p50_us"] = sample{quantile(reads, 0.5), int64(len(reads))}
	o.layer["load.san_late_p99_us"] = sample{quantile(late, 0.99), int64(len(late))}
	return o, nil
}

// sameState reports whether the store's state equals the model's on
// every key outside unsure.
func sameState(got, want map[uint16]uint16, unsure map[uint16]bool) bool {
	for k, v := range want {
		if g, ok := got[k]; !unsure[k] && (!ok || g != v) {
			return false
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok && !unsure[k] {
			return false
		}
	}
	return true
}

// sanPhase is arrival i's offset inside the jitter window: a golden-ratio
// sequence from a seeded start, so one slice's arrivals cover the window
// evenly instead of clumping as independent draws would.
func sanPhase(phase0 float64, i int) time.Duration {
	_, frac := math.Modf(phase0 + float64(i)*0.6180339887498949)
	return time.Duration(frac * float64(sanJitter))
}
