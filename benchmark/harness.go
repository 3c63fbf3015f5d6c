package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"omegasm"
	"omegasm/internal/stats"
)

// env is what one workload run is given: the seed its inputs derive
// from, how long it measures, and the tracer (nil on an untraced run).
type env struct {
	seed    int64
	seconds float64
	tr      *tracer
	// root is the repository root, for the probes that read its fixtures.
	root string
	// slices overrides a workload's slice count; 0 keeps it. Only the
	// smoke test sets it, to stay short.
	slices int
}

func (e env) sliceCount(def int) int {
	if e.slices > 0 {
		return e.slices
	}
	return def
}

// sample is one reported number with the count of observations behind it.
type sample struct {
	v float64
	n int64
}

// outcome is what one workload run hands back. e2e holds the workload's
// end-to-end values except the four endToEnd derives from the fields
// above it; layer holds the per-layer values this workload is the
// source of.
type outcome struct {
	attempted int64
	failed    int64
	setups    []float64 // seconds before the first measured op, one per slice
	heapMB    float64
	allocs    uint64 // heap objects allocated inside the measured windows
	ops       int64  // client operations inside the same windows
	e2e       map[string]sample
	layer     map[string]sample
	// schedule hashes every generated input (keys, values, due times), so
	// a test can assert that one seed means one schedule.
	schedule uint64
	// problems lists every oracle breach, empty on a correct run.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]sample{}, layer: map[string]sample{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd assembles the full end-to-end metric set from an outcome.
func (o *outcome) endToEnd() map[string]sample {
	m := map[string]sample{
		"setup_s":       {median(o.setups), int64(len(o.setups))},
		"ok_share":      {float64(o.attempted-o.failed) / float64(max(o.attempted, 1)), o.attempted},
		"heap_live_mb":  {o.heapMB, 1},
		"allocs_per_op": {float64(o.allocs) / float64(max(o.ops, 1)), o.ops},
	}
	for k, v := range o.e2e {
		m[k] = v
	}
	return m
}

// scheduleHash folds generated inputs into one word.
type scheduleHash struct{ h uint64 }

func (s *scheduleHash) add(vs ...uint64) {
	f := fnv.New64a()
	var b [8]byte
	for _, v := range append([]uint64{s.h}, vs...) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.Write(b[:])
	}
	s.h = f.Sum64()
}

// liveHeapMB is HeapAlloc after a forced collection: what the still-open
// store keeps reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs is the process's cumulative heap object count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// paceSpin is how much of the gap before a due time the open-loop
// generators spin rather than sleep: this host's sleeps overshoot by up
// to 1.1ms, and a request sent that late would be measuring the timer.
const paceSpin = 1500 * time.Microsecond

// sleepUntil parks until paceSpin before t and spins the rest, so an
// open-loop generator sends within microseconds of the due time without
// burning a core for the whole gap.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - paceSpin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated p-quantile of xs (unsorted, not
// modified); 0 on an empty slice.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, 100*p)
}

// midmean is the interquartile mean: the mean of the values between the
// first and third quartile. Where values are whole ticks, so that the
// median reads the same in every run, it still moves with the data.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// store is a started three-process cluster with its KV.
type store struct {
	c     *omegasm.Cluster
	kv    *omegasm.KV
	agree time.Duration // Start to the first agreed leader
}

// openStore builds a cluster of three on atomic registers unless opts say
// otherwise, waits for a leader and opens the KV.
func openStore(kvOpts []omegasm.KVOption, opts ...omegasm.Option) (*store, error) {
	c, err := omegasm.New(append([]omegasm.Option{omegasm.WithN(3)}, opts...)...)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := c.Start(); err != nil {
		return nil, err
	}
	if _, ok := c.WaitForAgreement(30 * time.Second); !ok {
		c.Stop()
		return nil, fmt.Errorf("no agreed leader within 30s")
	}
	agree := time.Since(t0)
	kv, err := omegasm.NewKV(c, kvOpts...)
	if err != nil {
		c.Stop()
		return nil, err
	}
	return &store{c: c, kv: kv, agree: agree}, nil
}

func (s *store) close() {
	s.kv.Close()
	s.c.Stop()
}
