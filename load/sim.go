package load

import (
	"fmt"
	"time"

	"omegasm"
)

// tickDuration is the wall-clock meaning of one virtual tick: the sim
// engine's convention throughout the repo is 1 tick = 1µs, so simulated
// latencies convert to durations by this factor.
const tickDuration = time.Microsecond

// SimOptions parameterizes the simulated substrate a workload runs
// against. The zero value is a 1-shard, 3-process cluster with the
// package defaults for slots, batching and checkpointing.
type SimOptions struct {
	// Shards is the number of hash partitions; default 1.
	Shards int
	// N is the number of processes per shard; default 3.
	N int
	// Slots is each shard's replicated-log capacity; 0 picks the sim
	// default.
	Slots int
	// BatchSize is each shard's proposal batch size; 0 picks the
	// default, 1 turns batching off.
	BatchSize int
	// CheckpointEvery is the sealing cadence in slots; 0 picks the
	// default, negative disables checkpointing.
	CheckpointEvery int
	// Crashes schedules process crashes, in virtual ticks.
	Crashes []omegasm.SimShardCrash
	// DrainTicks extends the horizon past the arrival window so late
	// requests can complete; default 200_000 ticks (200ms of virtual
	// time).
	DrainTicks int64
}

// RunSim executes the spec open-loop against a simulated sharded store
// under virtual time. The run is deterministic: the same spec and
// options produce the byte-identical report, and host speed never leaks
// into the measured latencies. Arrivals map to virtual ticks of one
// microsecond.
func RunSim(spec *Spec, opt SimOptions) (Report, error) {
	schedule, err := spec.schedule()
	if err != nil {
		return Report{}, err
	}
	shards := opt.Shards
	if shards == 0 {
		shards = 1
	}
	n := opt.N
	if n == 0 {
		n = 3
	}
	drain := opt.DrainTicks
	if drain == 0 {
		drain = 200_000
	}
	reqs := make([]omegasm.SimRequest, len(schedule))
	for i, r := range schedule {
		reqs[i] = omegasm.SimRequest{
			At:     int64(r.At / tickDuration),
			Key:    r.Key,
			Val:    r.Val,
			Read:   r.Read,
			Class:  r.Class,
			Client: r.Client,
		}
	}
	res, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
		Shards:          shards,
		N:               n,
		Seed:            spec.Seed,
		Horizon:         int64(spec.Duration/tickDuration) + drain,
		Slots:           opt.Slots,
		BatchSize:       opt.BatchSize,
		CheckpointEvery: opt.CheckpointEvery,
		Crashes:         opt.Crashes,
		Requests:        reqs,
	})
	if err != nil {
		return Report{}, fmt.Errorf("load: sim run: %w", err)
	}
	results := make([]Result, len(res.Requests))
	for i, rr := range res.Requests {
		lat := time.Duration(-1)
		if rr.Done >= 0 {
			lat = time.Duration(rr.Done-rr.At) * tickDuration
		}
		results[i] = Result{
			At:      time.Duration(rr.At) * tickDuration,
			Latency: lat,
			Read:    rr.Read,
			Class:   rr.Class,
		}
	}
	return buildReport("sim", spec, results), nil
}
