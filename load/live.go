//omegalint:allow simdet the live runner is wall-clock by design: it paces arrivals with real sleeps and fans requests out on goroutines; only RunSim carries the determinism obligation.

package load

import (
	"context"
	"sync"
	"time"
)

// Target is the store surface the live runner drives: both omegasm.KV
// and omegasm.ShardedKV satisfy it.
type Target interface {
	// Put replicates one write; it returns once the write is committed
	// and applied, or fails with the context's error.
	Put(ctx context.Context, key, val uint16) error
	// Get serves one key from local applied state.
	Get(key uint16) (uint16, bool)
}

// LiveOptions parameterizes a live execution.
type LiveOptions struct {
	// Drain is how long to wait past the arrival window for outstanding
	// requests; default 2s. Requests still incomplete after the drain
	// are cancelled and reported with Latency -1.
	Drain time.Duration
}

// RunLive executes the spec open-loop against a live store on the wall
// clock: each request is issued at its scheduled arrival regardless of
// earlier completions, and its latency is measured from the scheduled
// arrival time — a dispatcher running late charges the delay to the
// request, not to thin air (no coordinated omission).
func RunLive(spec *Spec, target Target, opt LiveOptions) (Report, error) {
	rep, _, err := RunLiveResults(spec, target, opt)
	return rep, err
}

// RunLiveResults is RunLive returning the raw per-request results
// alongside the aggregate report, for analyses the report doesn't
// pre-compute (time-windowed percentiles around a fault, per-key
// breakdowns).
func RunLiveResults(spec *Spec, target Target, opt LiveOptions) (Report, []Result, error) {
	schedule, err := spec.schedule()
	if err != nil {
		return Report{}, nil, err
	}
	drain := opt.Drain
	if drain == 0 {
		drain = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), spec.Duration+drain)
	defer cancel()

	results := make([]Result, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range schedule {
		if d := time.Until(start.Add(r.At)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, r request) {
			defer wg.Done()
			arrival := start.Add(r.At)
			lat := time.Duration(-1)
			if r.Read {
				target.Get(r.Key)
				lat = time.Since(arrival)
			} else if target.Put(ctx, r.Key, r.Val) == nil {
				lat = time.Since(arrival)
			}
			results[i] = Result{At: r.At, Latency: lat, Read: r.Read, Class: r.Class}
		}(i, r)
	}
	wg.Wait()
	return buildReport("live", spec, results), results, nil
}
