package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"omegasm"
)

// kv_closed_mix: the processor path. One client in a closed loop against
// a live three-process store on atomic registers, GOMAXPROCS=1, cycling
// through 32 serial Puts, 8 PutAll calls of 32 entries and 2048 lease
// reads of the keys just written. Nothing here waits for a timer or an
// injected delay, so every time it reports moves with the host's speed;
// on a shared host that is why it feeds per-layer metrics only.
const (
	cmSlices     = 3
	cmWarm       = time.Second
	cmKeys       = 4096
	cmSerialPuts = 32
	cmBatches    = 8
	cmBatchSize  = 32
	cmReads      = 2048
)

func runClosed(e env) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := newOutcome()
	var sched scheduleHash
	var putHist fineHist
	var putRate, batchRate, readRate []float64
	var fill, ckpt, gc []float64
	slices := e.sliceCount(cmSlices)
	sliceDur := time.Duration(e.seconds / float64(slices) * float64(time.Second))
	warm := min(cmWarm, sliceDur/2)
	for s := 0; s < slices; s++ {
		rng := rand.New(rand.NewSource(e.seed*15485863 + int64(s)))
		sliceSpan := e.tr.begin("closed.slice", 0, int64(s))
		t0 := time.Now()
		st, err := openStore([]omegasm.KVOption{omegasm.KVBatch(cmBatchSize)})
		if err != nil {
			return nil, err
		}
		kv := st.kv
		ctx := context.Background()
		var model [cmKeys]uint16
		var written [cmKeys]bool
		// The loop is time-driven, so how much of the seeded stream it
		// consumes depends on the host; the schedule hash covers the
		// first cycle's inputs of each slice, which always run.
		hashed := 0
		draw := func() (uint16, uint16) {
			k, v := uint16(rng.Intn(cmKeys)), uint16(rng.Intn(1<<16-1))
			if hashed < cmSerialPuts+cmBatches*cmBatchSize {
				sched.add(uint64(k), uint64(v))
				hashed++
			}
			return k, v
		}
		keys := make([]uint16, 0, cmSerialPuts+cmBatches*cmBatchSize)
		entries := make([]omegasm.Entry, cmBatchSize)
		var tPut, tBatch, tRead time.Duration
		var nPut, nBatch, nRead int64
		var batchApplied, batchSlots int
		var cycles int64
		cycle := func(measured bool) error {
			keys = keys[:0]
			traced := measured && e.tr != nil && cycles%64 == 0
			var cycleSpan int64
			if traced {
				cycleSpan = e.tr.begin("closed.cycle", sliceSpan, cycles)
			}
			a := time.Now()
			for i := 0; i < cmSerialPuts; i++ {
				k, v := draw()
				p0 := time.Now()
				if err := kv.Put(ctx, k, v); err != nil {
					return fmt.Errorf("closed: put: %w", err)
				}
				if measured {
					putHist.record(time.Since(p0))
				}
				model[k], written[k] = v, true
				keys = append(keys, k)
			}
			b := time.Now()
			applied0, slots0 := kv.Applied(), kv.SlotsUsed()
			for j := 0; j < cmBatches; j++ {
				for i := range entries {
					k, v := draw()
					entries[i] = omegasm.Entry{Key: k, Val: v}
					model[k], written[k] = v, true
					keys = append(keys, k)
				}
				if err := kv.PutAll(ctx, entries...); err != nil {
					return fmt.Errorf("closed: putall: %w", err)
				}
			}
			cc := time.Now()
			if measured {
				batchApplied += kv.Applied() - applied0
				batchSlots += kv.SlotsUsed() - slots0
			}
			for i := 0; i < cmReads; i++ {
				k := keys[i%len(keys)]
				got, ok, err := kv.Read(ctx, k, omegasm.ReadLease)
				if err != nil || !ok || got != model[k] {
					if measured {
						o.fail("closed slice %d: lease read of key %d = %d,%v,%v, last acknowledged %d", s, k, got, ok, err, model[k])
					}
				}
			}
			d := time.Now()
			if traced {
				e.tr.add("kv.Put x32", cycleSpan, cycles, a, b)
				e.tr.add("kv.PutAll x8", cycleSpan, cycles, b, cc)
				e.tr.add("kv.Read x2048", cycleSpan, cycles, cc, d)
				e.tr.end(cycleSpan)
			}
			if measured {
				tPut += b.Sub(a)
				tBatch += cc.Sub(b)
				tRead += d.Sub(cc)
				nPut += cmSerialPuts
				nBatch += cmBatches * cmBatchSize
				nRead += cmReads
				cycles++
			}
			return nil
		}
		fail := func(err error) (*outcome, error) {
			st.close()
			return nil, err
		}
		for time.Since(t0) < warm {
			if err := cycle(false); err != nil {
				return fail(err)
			}
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())

		ckpt0 := kv.Checkpoints()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for time.Since(start) < sliceDur-warm {
			if err := cycle(true); err != nil {
				return fail(err)
			}
		}
		measuredFor := time.Since(start)
		runtime.ReadMemStats(&ms1)
		o.allocs += ms1.Mallocs - ms0.Mallocs
		gc = append(gc, float64(ms1.NumGC-ms0.NumGC)/measuredFor.Seconds())
		ops := nPut + nBatch + nRead
		o.ops += ops
		o.attempted += ops
		putRate = append(putRate, float64(nPut)/tPut.Seconds())
		batchRate = append(batchRate, float64(nBatch)/tBatch.Seconds())
		readRate = append(readRate, float64(nRead)/tRead.Seconds())
		if batchSlots > 0 {
			fill = append(fill, float64(batchApplied)/float64(batchSlots))
		}
		ckpt = append(ckpt, 1000*float64(kv.Checkpoints()-ckpt0)/float64(nPut+nBatch))

		o.attempted++
		snap := kv.Snapshot()
		for k, w := range written {
			if got, ok := snap[uint16(k)]; ok != w || (w && got != model[k]) {
				o.fail("closed slice %d: final state of key %d is %d,%v, model has %d,%v", s, k, got, ok, model[k], w)
				break
			}
		}
		if s == slices-1 {
			o.heapMB = liveHeapMB()
		}
		st.close()
		e.tr.end(sliceSpan)
	}
	o.schedule = sched.h
	n := int64(len(putRate))
	o.layer["kv.writes_per_s"] = sample{median(putRate), n}
	o.layer["kv.batch_writes_per_s"] = sample{median(batchRate), n}
	o.layer["kv.reads_per_s"] = sample{median(readRate), n}
	o.layer["kv.write_p50_us"] = sample{putHist.quantile(0.5), putHist.n}
	o.layer["kv.put_p99_us"] = sample{putHist.quantile(0.99), putHist.n}
	o.layer["consensus.batch_fill"] = sample{median(fill), int64(len(fill))}
	o.layer["kv.gc_cycles_per_s"] = sample{median(gc), int64(len(gc))}
	o.layer["consensus.ckpt_per_kwrite"] = sample{median(ckpt), int64(len(ckpt))}
	return o, nil
}

// fineHist is a linear histogram of sub-131us durations in 8ns buckets:
// the log-bucketed internal/stats.Histogram steps by 3%, which is as
// wide as the differences this workload's medians are read for.
type fineHist struct {
	counts [1 << 14]uint32
	over   int64 // observations beyond the last bucket
	n      int64
}

const fineHistWidth = 8 // ns

func (h *fineHist) record(d time.Duration) {
	h.n++
	if b := int(d / fineHistWidth); b >= 0 && b < len(h.counts) {
		h.counts[b]++
		return
	}
	h.over++
}

// quantile returns the p-quantile in microseconds (bucket midpoint); a
// quantile that falls beyond the last bucket reports that bucket's edge.
func (h *fineHist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(p * float64(h.n-1))
	var seen int64
	for b, c := range h.counts {
		seen += int64(c)
		if seen > target {
			return (float64(b) + 0.5) * fineHistWidth / 1000
		}
	}
	return float64(len(h.counts)) * fineHistWidth / 1000
}
