package omegasm

import (
	"fmt"
	"sort"

	"omegasm/internal/consensus"
)

// SimWrite is one workload write of a simulated run: at virtual time At
// the workload submits Set(Key, Val) to whichever process the oracle
// then names leader, and keeps resubmitting across leadership changes
// until the command commits — the deterministic analogue of KV.Put.
type SimWrite struct {
	// At is the submission time in virtual ticks.
	At int64
	// Key and Val form the command; the pair (0xFFFF, 0xFFFF) is reserved.
	Key, Val uint16
}

// SimRequest is one open-loop workload request of a simulated run: it
// arrives at virtual time At on the clock, never gated on earlier
// requests' completions — the open-loop client model of the load
// harness, as opposed to the closed-loop SimWrite/SaturateWindow
// workloads. A write is submitted to whichever process the oracle then
// names leader and resubmitted across leadership changes until it
// commits; a read is answered by the freshest live replica's applied
// state at activation. Per-request completion times come back in
// SimRequestResult, so virtual-time latency percentiles can be compared
// against live-measured ones.
type SimRequest struct {
	// At is the arrival time in virtual ticks.
	At int64
	// Key and Val form the command for a write; reads use Key only.
	Key, Val uint16
	// Read selects a local read instead of a replicated write.
	Read bool
	// Class is an opaque workload-class tag echoed into the result (the
	// load harness keys SLO classes on it).
	Class int
	// Client identifies the issuing client for the recorded history's
	// per-client guarantees (monotone reads); requests of one client must
	// not overlap in time for program order to be meaningful.
	Client int
}

// SimKVConfig parameterizes one deterministic run of the full stack —
// Omega election, Disk-Paxos replicated log, key-value store — under the
// virtual-time engine. Identical configurations (including Seed) produce
// byte-identical results: the seeded adversary chooses the interleaving,
// crashes fire at exact virtual times, and every machine steps on one
// goroutine. This is the run class the paper quantifies over, opened up
// for the whole consensus stack instead of just the election layer.
type SimKVConfig struct {
	// N is the number of processes (>= 2).
	N int
	// Seed drives the run's scheduling adversary.
	Seed int64
	// Horizon ends the run, in virtual ticks; default 500_000.
	Horizon int64
	// Algorithm selects the election algorithm; default WriteEfficient.
	Algorithm Algorithm
	// Slots is the replicated log's slot window; default 256. With
	// checkpointing (the default) it bounds only the in-flight portion of
	// the stream; with checkpointing disabled it is the total capacity.
	Slots int
	// CheckpointEvery is the sealing cadence in slots, mirroring
	// KVCheckpointEvery: 0 picks the default (a quarter of Slots), a
	// negative value disables checkpointing and restores the
	// fixed-capacity log.
	CheckpointEvery int
	// Crashes maps pid -> virtual crash time: the process (its election
	// tasks and its replica) is permanently descheduled at that time, the
	// paper's crash-stop failure. At least one process must survive to
	// satisfy AWB1; crashing every process is rejected.
	Crashes map[int]int64
	// Writes is the workload. Entries may be in any order; they are
	// submitted at their At times.
	Writes []SimWrite
	// Requests is the open-loop workload: requests arrive at their At
	// times regardless of earlier completions, and each one's completion
	// time is reported in the result's Requests (parallel bookkeeping to
	// Writes, which tracks only a delivered count).
	Requests []SimRequest
	// Lease, when positive, turns on leader leases of that many virtual
	// ticks: replicas may only arm proposals while holding the lease
	// (KVLease's authority gate under the deterministic engine, with
	// eps 0 — a machine's clock read and its effects are one atomic
	// activation), and a monitor machine performs a lease read every few
	// ticks, recording the grant history and checking the linearizability
	// invariants into the result's LeaseGrants / LeaseViolations. Requires
	// checkpointing (the descriptor row carries the catch-up barriers);
	// zero leaves leases off, the prior behavior.
	Lease int64
	// Record turns on the scenario recorder: the run assembles a full
	// check.History — per-operation invocation/response events, the
	// committed stream as individually applied by every replica, the
	// final applied state, the lease-grant history — into the result's
	// History, ready for check.Verify. Off by default (recording costs a
	// map insert per applied command).
	Record bool
	// Faults configures the gray-failure fault models (stale election
	// registers, partial census visibility, timer skew, brownouts); nil
	// injects nothing.
	Faults *SimFaults
	// Mutation seeds a deliberate correctness bug (checker non-vacuity
	// proof); MutNone runs the real stack.
	Mutation SimMutation
}

// normalize fills the config's defaults and returns the validated shard
// configuration the run executes — the same value, so what was validated
// is exactly what runs.
func (cfg *SimKVConfig) normalize() (simShardConfig, error) {
	shard := simShardConfig{
		n:        cfg.N,
		batch:    1,
		crashes:  cfg.Crashes,
		writes:   cfg.Writes,
		lease:    cfg.Lease,
		record:   cfg.Record,
		faults:   cfg.Faults,
		mutation: cfg.Mutation,
	}
	if err := shard.fillDefaults(&cfg.Horizon, &cfg.Algorithm, &cfg.Slots, cfg.CheckpointEvery); err != nil {
		return shard, err
	}
	for i, r := range cfg.Requests {
		shard.requests = append(shard.requests, simIndexedRequest{req: r, index: i})
	}
	return shard, shard.validate()
}

// fillDefaults resolves the knobs SimKVConfig and SimShardedKVConfig
// share — writing the defaults back into the caller's config, so what the
// result echoes is what ran — into c. The checkpoint knob (0: default
// cadence, negative: off) resolves by NewKV's auto rule, so the simulator
// always models the live store's defaults.
func (c *simShardConfig) fillDefaults(horizon *int64, algorithm *Algorithm, slots *int, ckptEvery int) error {
	if *horizon == 0 {
		*horizon = 500_000
	}
	if *horizon < 0 {
		return fmt.Errorf("omegasm: sim horizon must be positive, got %d", *horizon)
	}
	if *algorithm == 0 {
		*algorithm = WriteEfficient
	}
	if *slots == 0 {
		*slots = 256
	}
	c.algorithm, c.slots, c.ckptEvery = *algorithm, *slots, max(ckptEvery, 0)
	if ckptEvery == 0 {
		c.ckptEvery = consensus.DefaultCheckpointEvery(*slots, c.n)
	}
	return nil
}

// simShardConfig is the resolved per-shard configuration the builders
// consume: SimKV runs one shard, SimShardedKV one per partition.
type simShardConfig struct {
	n         int
	algorithm Algorithm
	slots     int
	batch     int
	ckptEvery int // resolved: 0 means off
	crashes   map[int]int64
	writes    []SimWrite
	// requests is the shard's slice of the open-loop workload, each entry
	// carrying its index in the caller's Requests slice.
	requests []simIndexedRequest
	// window, when positive, adds a closed-loop load generator that keeps
	// that many commands queued on the shard's leader (the saturation
	// workload of the scaling benchmark).
	window int
	// lease, when positive, is the leader-lease duration in ticks
	// (authority-gated proposing plus the lease-read monitor).
	lease int64
	// record turns on the scenario recorder (SimKVConfig.Record).
	record bool
	// faults configures the gray-failure models; nil injects nothing.
	faults *SimFaults
	// mutation seeds a deliberate correctness bug (MutNone: none).
	mutation SimMutation
}

// simIndexedRequest pairs an open-loop request with its position in the
// caller's Requests slice, so sharded runs can reassemble results in
// submission order.
type simIndexedRequest struct {
	req   SimRequest
	index int
}

func (c *simShardConfig) validate() error {
	if c.n < 2 {
		return fmt.Errorf("omegasm: sim needs at least 2 processes, got %d", c.n)
	}
	if !c.algorithm.valid() {
		return fmt.Errorf("omegasm: unknown algorithm %v", c.algorithm)
	}
	if c.slots < 1 {
		return fmt.Errorf("omegasm: sim needs at least 1 log slot, got %d", c.slots)
	}
	if c.batch < 1 {
		return fmt.Errorf("omegasm: sim batch size must be at least 1, got %d", c.batch)
	}
	if err := checkLogShape("sim", c.n, c.slots, c.batch, c.ckptEvery); err != nil {
		return err
	}
	// Validate in sorted pid order: with several bad entries the error
	// reported must be the same on every run (map order must never pick
	// it), or seeded-replay comparisons of failing configs would flake.
	pids := make([]int, 0, len(c.crashes))
	for p := range c.crashes {
		pids = append(pids, p)
	}
	sort.Ints(pids)
	for _, p := range pids {
		if t := c.crashes[p]; p < 0 || p >= c.n {
			return fmt.Errorf("omegasm: crash schedule names process %d of %d", p, c.n)
		} else if t < 0 {
			return fmt.Errorf("omegasm: crash time %d for process %d is negative", t, p)
		}
	}
	if len(c.crashes) >= c.n {
		return fmt.Errorf("omegasm: crash schedule kills all %d processes; at least one must survive", c.n)
	}
	for _, wr := range c.writes {
		if consensus.IsReserved(consensus.EncodeSet(wr.Key, wr.Val), c.batch > 1 || c.ckptEvery > 0) {
			return fmt.Errorf("omegasm: key/value pair (0x%04x, 0x%04x) is reserved", wr.Key, wr.Val)
		}
		if wr.At < 0 {
			return fmt.Errorf("omegasm: write time %d is negative", wr.At)
		}
	}
	for _, ir := range c.requests {
		r := ir.req
		if !r.Read && consensus.IsReserved(consensus.EncodeSet(r.Key, r.Val), c.batch > 1 || c.ckptEvery > 0) {
			return fmt.Errorf("omegasm: request key/value pair (0x%04x, 0x%04x) is reserved", r.Key, r.Val)
		}
		if r.At < 0 {
			return fmt.Errorf("omegasm: request time %d is negative", r.At)
		}
	}
	if c.window < 0 {
		return fmt.Errorf("omegasm: saturation window %d is negative", c.window)
	}
	if c.lease < 0 {
		return fmt.Errorf("omegasm: lease duration %d is negative", c.lease)
	}
	if c.lease > 0 && c.ckptEvery == 0 && c.batch <= 1 {
		return fmt.Errorf("omegasm: leases need a log that reserves the descriptor row (enable checkpointing or batching)")
	}
	if err := c.faults.validate(); err != nil {
		return err
	}
	if !c.mutation.valid() {
		return fmt.Errorf("omegasm: unknown mutation %d", c.mutation)
	}
	return nil
}

// SimShardCrash schedules one crash of a sharded simulated run: process
// Proc of shard Shard is permanently descheduled at virtual time At.
type SimShardCrash struct {
	// Shard and Proc locate the process.
	Shard, Proc int
	// At is the crash time in virtual ticks.
	At int64
}

// SimShardedKVConfig parameterizes one deterministic run of a whole
// sharded store — S independent shards, each a full
// election/consensus/KV stack, in one virtual-time engine. It is the
// deterministic analogue of ShardedKV: writes route by the same hash,
// shards fail independently, and identical configurations produce
// byte-identical per-shard commit histories. Because virtual time models
// every machine as its own processor, a sharded sim also measures the
// architecture's parallel capacity exactly — the scaling benchmark runs
// this with SaturateWindow set.
type SimShardedKVConfig struct {
	// Shards is the number of hash partitions (>= 1).
	Shards int
	// N is the number of processes per shard (>= 2).
	N int
	// Seed drives the run's scheduling adversary.
	Seed int64
	// Horizon ends the run, in virtual ticks; default 500_000.
	Horizon int64
	// Algorithm selects the election algorithm; default WriteEfficient.
	Algorithm Algorithm
	// Slots is each shard's replicated-log capacity; default 256.
	Slots int
	// BatchSize is each shard's proposal batch size; default
	// DefaultBatchSize, 1 turns batching off. Batched runs reserve the
	// key 0xFFFF row, as ShardedKV does.
	BatchSize int
	// CheckpointEvery is each shard's sealing cadence in slots, mirroring
	// WithCheckpointEvery: 0 picks the default (a quarter of Slots), a
	// negative value disables checkpointing (fixed-capacity shard logs).
	CheckpointEvery int
	// Crashes is the cross-shard crash schedule. At least one process per
	// shard must survive.
	Crashes []SimShardCrash
	// Writes is the tracked workload: each write routes to its key's
	// shard (the ShardFor hash) and is retried across that shard's
	// leadership changes until committed.
	Writes []SimWrite
	// Requests is the open-loop workload: each request routes to its
	// key's shard and arrives there at its At time regardless of earlier
	// completions; per-request completion times come back in the result's
	// Requests, in submission order.
	Requests []SimRequest
	// SaturateWindow, when positive, adds one closed-loop load generator
	// per shard that keeps that many commands queued on the shard's
	// leader — the saturation workload whose committed count measures
	// shard capacity. Zero: no generated load.
	SaturateWindow int
	// Record turns on the scenario recorder per shard (each shard's
	// result carries its own History); see SimKVConfig.Record.
	Record bool
	// Faults configures every shard's gray-failure fault models; nil
	// injects nothing. See SimKVConfig.Faults.
	Faults *SimFaults
}

func (cfg *SimShardedKVConfig) normalize() ([]simShardConfig, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("omegasm: sim needs at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	base := simShardConfig{
		n:      cfg.N,
		batch:  cfg.BatchSize,
		window: cfg.SaturateWindow,
		record: cfg.Record,
		faults: cfg.Faults,
	}
	if err := base.fillDefaults(&cfg.Horizon, &cfg.Algorithm, &cfg.Slots, cfg.CheckpointEvery); err != nil {
		return nil, err
	}
	shards := make([]simShardConfig, cfg.Shards)
	for s := range shards {
		shards[s] = base
		shards[s].crashes = map[int]int64{}
	}
	for _, cr := range cfg.Crashes {
		if cr.Shard < 0 || cr.Shard >= cfg.Shards {
			return nil, fmt.Errorf("omegasm: crash schedule names shard %d of %d", cr.Shard, cfg.Shards)
		}
		shards[cr.Shard].crashes[cr.Proc] = cr.At
	}
	for _, wr := range cfg.Writes {
		sh := &shards[shardIndex(wr.Key, cfg.Shards)]
		sh.writes = append(sh.writes, wr)
	}
	for i, r := range cfg.Requests {
		sh := &shards[shardIndex(r.Key, cfg.Shards)]
		sh.requests = append(sh.requests, simIndexedRequest{req: r, index: i})
	}
	for s := range shards {
		if err := shards[s].validate(); err != nil {
			return nil, fmt.Errorf("omegasm: shard %d: %w", s, err)
		}
	}
	return shards, nil
}
