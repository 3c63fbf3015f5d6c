package omegasm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// defaultBatchSize is the per-shard proposal batch size a ShardedKV uses
// unless WithBatchSize overrides it: up to this many queued writes are
// packed into one consensus slot (one Disk-Paxos round).
const defaultBatchSize = 32

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
// Shard logs checkpoint: each shard's leader periodically seals its log
// prefix into a published snapshot and the sealed slots recycle, so
// every shard's write stream — and therefore the store's — is unbounded;
// a 1024-slot window per shard bounds only what is in flight.
//
// Routing is static: a fixed hash of the key picks its shard, so no
// directory service and no cross-shard coordination exist. The price is the consistency scope —
// each shard is sequentially consistent on its own log, and a cross-shard
// MultiPut is not atomic: it fans out per shard in parallel and some
// shards may commit before others (each shard's group, though, commits
// through its log like any Put). Keys exclude 0xFFFF, the row batch and
// checkpoint descriptors claim (see KVBatch).
//
// A ShardedKV owns its Fleet: build with NewShardedKV, run with Start,
// free with Close.
type ShardedKV struct {
	fleet *Fleet
	kvs   []*KV
}

// NewShardedKV validates the options and builds a stopped sharded store;
// call Start to run it. WithShards picks the partition count and
// WithBatchSize the per-shard proposal batch size; WithN is required, and
// every cluster option (WithAlgorithm, WithSAN, ...) applies to all shard
// clusters. WithClusters does not apply (the fleet size is the shard
// count).
func NewShardedKV(opts ...Option) (*ShardedKV, error) {
	s := newSettings()
	if err := s.apply(opts); err != nil {
		return nil, err
	}
	if s.clustersSet {
		return nil, fmt.Errorf("omegasm: WithClusters does not apply to NewShardedKV; use WithShards")
	}
	if s.batchSize == 0 {
		s.batchSize = defaultBatchSize
	}
	if s.shardSlots == 0 {
		s.shardSlots = 1024
	}
	s.clusters = s.shards
	f, err := newFleetFromSettings(s, opts)
	if err != nil {
		return nil, err
	}
	skv := &ShardedKV{fleet: f}
	for i, c := range f.clusters {
		kvOpts := []KVOption{KVSlots(s.shardSlots), KVBatch(s.batchSize)}
		if s.checkpointEvery != ckptAuto {
			kvOpts = append(kvOpts, kvCheckpointEvery(s.checkpointEvery))
		}
		kv, err := NewKV(c, kvOpts...)
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

// shardFor returns the shard index key routes to.
func (s *ShardedKV) shardFor(key uint16) int {
	return shardIndex(key, len(s.kvs))
}

// shardIndex is the routing hash: multiplicative (Fibonacci) hashing
// spreads adjacent keys across shards, and the fixed constant keeps the
// partition map a pure function of (key, shards) — deterministic across
// runs and processes, so routing needs no shared state.
func shardIndex(key uint16, shards int) int {
	return int(((uint32(key) * 0x9E3779B1) >> 16) % uint32(shards))
}

// Put replicates one write through its key's shard and returns once it is
// committed, retrying across that shard's leader changes (the semantics
// of KV.Put on the routed shard).
func (s *ShardedKV) Put(ctx context.Context, key, val uint16) error {
	return s.kvs[s.shardFor(key)].Put(ctx, key, val)
}

// Get returns the value of key in the applied state of its shard's
// freshest readable replica. Reads are sequentially consistent per shard.
func (s *ShardedKV) Get(key uint16) (uint16, bool) {
	return s.kvs[s.shardFor(key)].Get(key)
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
		sh := s.shardFor(e.Key)
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
		sh := s.shardFor(k)
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
func (s *ShardedKV) Len() (n int) {
	for _, kv := range s.kvs {
		n += kv.Len()
	}
	return n
}
