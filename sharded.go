package omegasm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// DefaultBatchSize is the per-shard proposal batch size a ShardedKV uses
// unless WithBatchSize overrides it: up to this many queued writes are
// packed into one consensus slot (one Disk-Paxos round).
const DefaultBatchSize = 32

// ShardedKV is a hash-partitioned replicated key-value service: every key
// is routed to one of S shards, each shard a consensus-backed KV store
// over its own cluster of an internally owned Fleet. It is the layer that
// composes the module's whole stack into one traffic-serving system —
// Omega election per shard cluster, an Omega-driven Disk-Paxos log per
// shard, the wake-driven engine underneath, and the Fleet's cached
// agreement views for routing — and it scales writes two ways at once:
//
//   - Sharding: the S replicated logs are fully independent (separate
//     shared memories, separate engines), so shard commit pipelines run
//     in parallel and aggregate throughput grows with S.
//   - Batching: within a shard, up to WithBatchSize queued writes are
//     packed into one consensus slot (see KVBatch), so one Disk-Paxos
//     round — and its quorum I/O on the SAN substrate — is amortized
//     across the whole batch.
//
// Shard logs checkpoint by default (WithCheckpointEvery): each shard's
// leader periodically seals its log prefix into a published snapshot and
// the sealed slots recycle, so every shard's write stream — and therefore
// the store's — is unbounded; WithShardSlots bounds only the in-flight
// window per shard.
//
// Routing is static: ShardFor hashes the key, so no directory service and
// no cross-shard coordination exist. The price is the consistency scope —
// each shard is sequentially consistent on its own log, and a cross-shard
// MultiPut is not atomic: it fans out per shard in parallel and some
// shards may commit before others (each shard's group, though, commits
// through its log like any Put). Keys on batched or checkpointing shards
// exclude 0xFFFF (the descriptor row; see KVBatch and KVCheckpointEvery);
// WithBatchSize(1) plus WithCheckpointEvery(0) restores the full key
// space.
//
// A ShardedKV owns its Fleet: build with NewShardedKV, run with Start,
// free with Close. The Fleet accessor exposes the underlying clusters for
// fault injection and inspection.
type ShardedKV struct {
	fleet *Fleet
	kvs   []*KV
	batch int
}

// NewShardedKV validates the options and builds a stopped sharded store;
// call Start to run it. WithShards picks the partition count and
// WithBatchSize the per-shard proposal batch size; WithN is required, and
// every cluster option (WithAlgorithm, WithSAN, ...) applies to all shard
// clusters, with WithClusterOptions overriding single shards — a fleet of
// mostly atomic shards with one SAN-backed shard is a one-option change.
// WithClusters does not apply (the fleet size is the shard count).
func NewShardedKV(opts ...Option) (*ShardedKV, error) {
	s := newSettings()
	if err := s.apply(opts); err != nil {
		return nil, err
	}
	for _, name := range s.fleetOpts {
		if name == "WithClusters" {
			return nil, fmt.Errorf("omegasm: WithClusters does not apply to NewShardedKV; use WithShards")
		}
	}
	if s.batchSize == 0 {
		s.batchSize = DefaultBatchSize
	}
	if s.shardSlots == 0 {
		s.shardSlots = 1024
	}
	s.clusters = s.shards
	f, err := newFleetFromSettings(s, opts)
	if err != nil {
		return nil, err
	}
	skv := &ShardedKV{fleet: f, batch: s.batchSize}
	for i := 0; i < f.Clusters(); i++ {
		kvOpts := []KVOption{KVSlots(s.shardSlots), KVBatch(s.batchSize)}
		if s.checkpointEvery != ckptAuto {
			kvOpts = append(kvOpts, KVCheckpointEvery(s.checkpointEvery))
		}
		kv, err := NewKV(f.Cluster(i), kvOpts...)
		if err != nil {
			skv.Close()
			return nil, fmt.Errorf("omegasm: shard %d: %w", i, err)
		}
		skv.kvs = append(skv.kvs, kv)
	}
	return skv, nil
}

// Start launches every shard cluster and the fleet's view refresher. It
// may be called once; a closed store cannot be restarted.
func (s *ShardedKV) Start() error { return s.fleet.Start() }

// Close stops every shard's replication engine and the underlying fleet.
// Reads keep answering from the frozen applied states; writes stop
// committing. Idempotent.
func (s *ShardedKV) Close() {
	for _, kv := range s.kvs {
		kv.Close()
	}
	s.fleet.Stop()
}

// WaitForAgreement blocks until every shard cluster's live processes
// agree on a live leader (all shards waited in parallel; the timeout
// bounds total wall time) or the timeout elapses. It reports whether the
// whole store is ready to commit writes without electing first.
func (s *ShardedKV) WaitForAgreement(timeout time.Duration) bool {
	_, ok := s.fleet.WaitForAgreement(timeout)
	return ok
}

// Shards returns the number of hash partitions.
func (s *ShardedKV) Shards() int { return len(s.kvs) }

// BatchSize returns the per-shard proposal batch size (1: batching off).
func (s *ShardedKV) BatchSize() int { return s.batch }

// CheckpointEvery returns the per-shard checkpoint cadence in slots (0:
// checkpointing off, shard logs fill permanently).
func (s *ShardedKV) CheckpointEvery() int { return s.kvs[0].CheckpointEvery() }

// Checkpoints returns the total number of checkpoints passed across the
// shards' reading replicas — how many times shard log prefixes have been
// sealed and their slots recycled.
func (s *ShardedKV) Checkpoints() int { return s.total((*KV).Checkpoints) }

// total sums one of the shard stores' counters across the shards.
func (s *ShardedKV) total(count func(*KV) int) (sum int) {
	for _, kv := range s.kvs {
		sum += count(kv)
	}
	return sum
}

// Fleet returns the underlying fleet, for fault injection (Crash,
// CrashDisk via Cluster) and inspection (Leader, Stats). The fleet is
// owned by the store: do not Stop it directly; Close the store.
func (s *ShardedKV) Fleet() *Fleet { return s.fleet }

// Shard returns shard i's replicated store for direct access, or nil if
// out of range.
func (s *ShardedKV) Shard(i int) *KV {
	if i < 0 || i >= len(s.kvs) {
		return nil
	}
	return s.kvs[i]
}

// ShardFor returns the shard index key routes to. The hash is a fixed
// Fibonacci multiplier over the key — deterministic across runs and
// processes, so routing needs no shared state.
func (s *ShardedKV) ShardFor(key uint16) int {
	return shardIndex(key, len(s.kvs))
}

// shardIndex is the routing hash: multiplicative (Fibonacci) hashing
// spreads adjacent keys across shards, and the fixed constant keeps the
// partition map a pure function of (key, shards).
func shardIndex(key uint16, shards int) int {
	return int(((uint32(key) * 0x9E3779B1) >> 16) % uint32(shards))
}

// Put replicates one write through its key's shard and returns once it is
// committed, retrying across that shard's leader changes (the semantics
// of KV.Put on the routed shard).
func (s *ShardedKV) Put(ctx context.Context, key, val uint16) error {
	return s.kvs[s.ShardFor(key)].Put(ctx, key, val)
}

// Get returns the value of key in the applied state of its shard's
// freshest readable replica. Reads are sequentially consistent per shard.
func (s *ShardedKV) Get(key uint16) (uint16, bool) {
	return s.kvs[s.ShardFor(key)].Get(key)
}

// MultiPut replicates a group of writes and returns once all of them are
// committed: entries are grouped by shard, each shard's group is
// submitted as one PutAll — so it batches into as few consensus slots as
// the batch size allows — and the per-shard groups fan out in parallel,
// overlapping the shards' consensus rounds. The call gathers every
// shard's outcome and returns their joined errors (nil when all groups
// committed). Cross-shard atomicity is NOT provided: if ctx expires or a
// shard's log fills, other shards' groups may still have committed.
// Within one shard, entries keep their relative submission order.
func (s *ShardedKV) MultiPut(ctx context.Context, entries ...Entry) error {
	if len(entries) == 0 {
		return nil
	}
	groups := make(map[int][]Entry)
	for _, e := range entries {
		sh := s.ShardFor(e.Key)
		groups[sh] = append(groups[sh], e)
	}
	errs := make([]error, len(s.kvs))
	var wg sync.WaitGroup
	for sh, group := range groups {
		wg.Add(1)
		go func(sh int, group []Entry) {
			defer wg.Done()
			if err := s.kvs[sh].PutAll(ctx, group...); err != nil {
				errs[sh] = fmt.Errorf("omegasm: shard %d: %w", sh, err)
			}
		}(sh, group)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// MultiGet reads many keys at once: keys are grouped by shard, the
// per-shard lookups fan out in parallel, and the results are gathered in
// argument order. ok[i] reports whether keys[i] was present. Each shard's
// answers are sequentially consistent on that shard's log; there is no
// cross-shard snapshot.
func (s *ShardedKV) MultiGet(keys ...uint16) (vals []uint16, ok []bool) {
	vals = make([]uint16, len(keys))
	ok = make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, ok
	}
	groups := make(map[int][]int) // shard -> indices into keys
	for i, k := range keys {
		sh := s.ShardFor(k)
		groups[sh] = append(groups[sh], i)
	}
	var wg sync.WaitGroup
	for sh, idxs := range groups {
		wg.Add(1)
		go func(sh int, idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				vals[i], ok[i] = s.kvs[sh].Get(keys[i])
			}
		}(sh, idxs)
	}
	wg.Wait()
	return vals, ok
}

// Len returns the total number of keys in the applied states of all
// shards (hash partitioning makes the key sets disjoint).
func (s *ShardedKV) Len() int { return s.total((*KV).Len) }

// Applied returns the total number of log entries applied across all
// shards' reading replicas — the store-wide committed-write odometer the
// benchmarks sample.
func (s *ShardedKV) Applied() int { return s.total((*KV).Applied) }

// Capacity returns the total consensus-slot window capacity across
// shards. With checkpointing on (the default) this bounds only the
// in-flight portion of each shard's stream — total write capacity is
// unbounded; with WithCheckpointEvery(0) it is the store's total
// capacity (times BatchSize with batching).
func (s *ShardedKV) Capacity() int { return s.total((*KV).Capacity) }

// Snapshot returns a copy of the merged applied state of all shards.
// Shard snapshots are taken one after another: the result is a union of
// per-shard sequentially consistent states, not a cross-shard atomic cut.
func (s *ShardedKV) Snapshot() map[uint16]uint16 {
	out := make(map[uint16]uint16)
	for _, kv := range s.kvs {
		for k, v := range kv.Snapshot() {
			out[k] = v
		}
	}
	return out
}
