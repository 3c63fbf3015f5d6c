package omegasm

import (
	"context"
	"testing"
	"time"
)

// shardedOpts is the fast-paced sharded-store configuration the tests run
// with.
func shardedOpts(shards, n int) []Option {
	return append(fastOpts(n), WithShards(shards))
}

func startSharded(t *testing.T, opts ...Option) *ShardedKV {
	t.Helper()
	s, err := NewShardedKV(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if !s.WaitForAgreement(20 * time.Second) {
		t.Fatal("shards did not elect")
	}
	return s
}

func TestShardedKVValidation(t *testing.T) {
	if _, err := NewShardedKV(WithShards(0), WithN(3)); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewShardedKV(WithShards(2)); err == nil {
		t.Error("sharded store without WithN accepted")
	}
	if _, err := NewShardedKV(WithShards(2), WithN(3),
		WithBatchSize(0)); err == nil {
		t.Error("batch size 0 accepted")
	}
	if _, err := NewShardedKV(WithShards(2), WithN(3),
		withShardSlots(0)); err == nil {
		t.Error("0 shard slots accepted")
	}
	if _, err := NewShardedKV(WithShards(2), WithN(3),
		withCheckpointEvery(-1)); err == nil {
		t.Error("negative checkpoint interval accepted")
	}
	if _, err := NewShardedKV(WithShards(2), WithN(3),
		withShardSlots(16), withCheckpointEvery(16)); err == nil {
		t.Error("checkpoint interval equal to the shard window accepted")
	}
	if _, err := New(WithN(3), withCheckpointEvery(8)); err == nil {
		t.Error("withCheckpointEvery accepted by New")
	}
	if _, err := NewShardedKV(WithClusters(2), WithN(3)); err == nil {
		t.Error("WithClusters accepted by NewShardedKV")
	}
	// Sharded-only options must not leak into the other constructors.
	if _, err := New(WithN(3), WithShards(2)); err == nil {
		t.Error("WithShards accepted by New")
	}
	if _, err := NewFleet(WithClusters(2), WithN(3),
		WithBatchSize(8)); err == nil {
		t.Error("WithBatchSize accepted by NewFleet")
	}
	if _, err := New(WithN(3), withShardSlots(64)); err == nil {
		t.Error("withShardSlots accepted by New")
	}
	// Batching packs the proposer id into four bits: 17 processes must be
	// rejected up front, and be accepted with batching off.
	if _, err := NewShardedKV(WithShards(1), WithN(17)); err == nil {
		t.Error("17 processes accepted on a batched shard")
	}
	s, err := NewShardedKV(WithShards(1), WithN(17),
		WithBatchSize(1))
	if err != nil {
		t.Errorf("17 processes rejected with batching off: %v", err)
	} else {
		s.Close()
	}
}

// TestShardedKVSustainedStream pushes a stream several times the store's
// total slot capacity through tiny per-shard windows: per-shard
// checkpointing (on by default) must recycle each shard's log so no
// write ever sees ErrLogFull, and the final state reads back exactly.
func TestShardedKVSustainedStream(t *testing.T) {
	const (
		shards = 2
		slots  = 32
	)
	s := startSharded(t, append(shardedOpts(shards, 3),
		withShardSlots(slots), WithBatchSize(4))...)
	if every := s.kvs[0].stores[0].CheckpointEvery(); every != slots/4 {
		t.Fatalf("checkpoint cadence %d, want the %d default", every, slots/4)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	writes := 10 * shards * slots
	if testing.Short() {
		writes = 4 * shards * slots
	}
	const group = 64
	for done := 0; done < writes; {
		n := min(group, writes-done)
		entries := make([]Entry, n)
		for j := range entries {
			k := done + j
			entries[j] = Entry{Key: uint16(k % 100), Val: uint16(k)}
		}
		if err := s.MultiPut(ctx, entries...); err != nil {
			t.Fatalf("write %d of a sustained stream: %v", done, err)
		}
		done += n
	}
	for k := 0; k < 100; k++ {
		want := uint16(writes - 1 - (writes-1-k)%100)
		if v, ok := s.Get(uint16(k)); !ok || v != want {
			t.Errorf("Get(%d) = (%d, %v), want %d", k, v, ok, want)
		}
	}
	checkpoints := 0
	for _, kv := range s.kvs {
		checkpoints += kv.Checkpoints()
	}
	if checkpoints < 2 {
		t.Fatalf("only %d checkpoints across %d shards over a sustained stream", checkpoints, shards)
	}
}

func TestShardedKVRoutingIsTotalAndDeterministic(t *testing.T) {
	s, err := NewShardedKV(shardedOpts(4, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if batch := s.kvs[0].stores[0].MaxBatch(); len(s.kvs) != 4 || batch != defaultBatchSize {
		t.Fatalf("%d shards, batch size %d", len(s.kvs), batch)
	}
	hit := make([]int, 4)
	for k := 0; k <= 0xFFFF; k++ {
		sh := s.shardFor(uint16(k))
		if sh < 0 || sh >= 4 {
			t.Fatalf("key %d routed to shard %d", k, sh)
		}
		if sh != s.shardFor(uint16(k)) {
			t.Fatalf("key %d routing not deterministic", k)
		}
		hit[sh]++
	}
	// The hash must actually spread load: no shard may be starved or hold
	// more than half the key space.
	for sh, n := range hit {
		if n < 1<<12 || n > 1<<15 {
			t.Fatalf("shard %d owns %d of 65536 keys; hash is not spreading", sh, n)
		}
	}
}

// TestShardedKVPutGetAcrossShards is the basic end-to-end flow: writes
// land on their hash-routed shards and reads find them again, through
// both the single-key and the fan-out paths.
func TestShardedKVPutGetAcrossShards(t *testing.T) {
	s := startSharded(t, shardedOpts(3, 3)...)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var entries []Entry
	for k := uint16(0); k < 24; k++ {
		entries = append(entries, Entry{Key: k, Val: 100 + k})
	}
	if err := s.MultiPut(ctx, entries...); err != nil {
		t.Fatal(err)
	}
	for k := uint16(0); k < 24; k++ {
		if v, ok := s.Get(k); !ok || v != 100+k {
			t.Errorf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	keys := make([]uint16, 25)
	for i := range keys {
		keys[i] = uint16(i)
	}
	vals, ok := s.MultiGet(keys...)
	for i := 0; i < 24; i++ {
		if !ok[i] || vals[i] != 100+uint16(i) {
			t.Errorf("MultiGet[%d] = %d, %v", i, vals[i], ok[i])
		}
	}
	if ok[24] {
		t.Error("MultiGet found a never-written key")
	}
	if s.Len() != 24 {
		t.Errorf("Len() = %d, want 24", s.Len())
	}
	if v, ok := s.Get(3); !ok || v != 103 {
		t.Errorf("Get(3) = %d, %v", v, ok)
	}
	// A single Put routes and commits like any KV write.
	if err := s.Put(ctx, 1000, 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(1000); !ok || v != 7 {
		t.Errorf("Get(1000) = %d, %v", v, ok)
	}
	// Writes actually spread: at least two shards must have applied
	// something.
	busy := 0
	for _, kv := range s.kvs {
		if kv.Applied() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d shards saw traffic; routing is not spreading", busy)
	}
}

// TestShardedKVBatchingPacksSlots: a MultiPut group lands in far fewer
// consensus slots than commands on a batched store — the proposal
// batching the scaling benchmark quantifies.
func TestShardedKVBatchingPacksSlots(t *testing.T) {
	s := startSharded(t, append(shardedOpts(2, 3), WithBatchSize(16))...)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var entries []Entry
	for k := uint16(0); k < 64; k++ {
		entries = append(entries, Entry{Key: k, Val: k})
	}
	if err := s.MultiPut(ctx, entries...); err != nil {
		t.Fatal(err)
	}
	applied, slots := 0, 0
	for _, sh := range s.kvs {
		applied += sh.Applied()
		slots += sh.SlotsUsed()
	}
	if applied < 64 {
		t.Fatalf("applied %d of 64 writes", applied)
	}
	// With batch 16 and parallel group submission, 64 commands must not
	// have burned anywhere near 64 slots. Allow generous slack for
	// leadership flaps and partial batches.
	if slots*2 >= applied {
		t.Errorf("64 writes used %d slots (applied %d); batching is not engaging", slots, applied)
	}
	// Key 0xFFFF is reserved on batched shards and rejected synchronously.
	if err := s.Put(ctx, 0xFFFF, 1); err == nil {
		t.Error("reserved key accepted on a batched shard")
	}
	if err := s.MultiPut(ctx, Entry{Key: 1, Val: 1}, Entry{Key: 0xFFFF, Val: 1}); err == nil {
		t.Error("MultiPut with a reserved key reported full success")
	}
}

// TestShardedKVSurvivesShardLeaderCrash: crashing one shard's leader must
// stall only that shard (until its survivors re-elect) and leave the
// other shards' data and write paths untouched.
func TestShardedKVSurvivesShardLeaderCrash(t *testing.T) {
	s := startSharded(t, shardedOpts(2, 4)...)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var entries []Entry
	for k := uint16(0); k < 16; k++ {
		entries = append(entries, Entry{Key: k, Val: 10 + k})
	}
	if err := s.MultiPut(ctx, entries...); err != nil {
		t.Fatal(err)
	}
	leader, ok := s.fleet.Leader(0)
	if !ok {
		t.Fatal("shard 0 lost agreement")
	}
	if err := s.fleet.crash(0, leader); err != nil {
		t.Fatal(err)
	}
	// Reads keep answering everywhere; the crashed shard's survivors may
	// briefly lag what the dead leader committed (sequential consistency
	// permits the stale prefix), so poll the committed keys up to a
	// deadline rather than demanding instant freshness.
	deadline := time.Now().Add(20 * time.Second)
	for k := uint16(0); k < 16; k++ {
		for {
			if v, ok := s.Get(k); ok && v == 10+k {
				break
			}
			if time.Now().After(deadline) {
				v, ok := s.Get(k)
				t.Fatalf("Get(%d) after crash = %d, %v: survivors never caught up", k, v, ok)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Writes resume on every shard once shard 0's survivors re-elect; the
	// routed Puts retry internally.
	for k := uint16(16); k < 32; k++ {
		if err := s.Put(ctx, k, 10+k); err != nil {
			t.Fatalf("post-crash put %d: %v", k, err)
		}
	}
	for k := uint16(0); k < 32; k++ {
		if v, ok := s.Get(k); !ok || v != 10+k {
			t.Errorf("Get(%d) = %d, %v after failover", k, v, ok)
		}
	}
}

// The fleet edge cases the sharded router relies on.

func TestFleetCrashOutOfRange(t *testing.T) {
	f := startFleet(t, fleetOpts(2, 2)...)
	if _, ok := f.Leader(-1); ok {
		t.Error("out-of-range Leader() reported ok")
	}
	if err := f.crash(2, 0); err == nil {
		t.Error("out-of-range cluster Crash() accepted")
	}
	if err := f.crash(-1, 0); err == nil {
		t.Error("negative cluster Crash() accepted")
	}
	if err := f.crash(0, 5); err == nil {
		t.Error("out-of-range process Crash() accepted")
	}
}

func TestFleetCrashOnStoppedFleet(t *testing.T) {
	f, err := NewFleet(fleetOpts(2, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	if err := f.crash(0, 0); err == nil {
		t.Error("Crash on a stopped fleet accepted")
	}
	// Never-started fleets stop (and then refuse crashes) cleanly too.
	f2, err := NewFleet(fleetOpts(1, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	f2.Stop()
	if err := f2.crash(0, 0); err == nil {
		t.Error("Crash on a stopped never-started fleet accepted")
	}
}

// TestFleetWaitForAgreementRacesStop: a WaitForAgreement in flight while
// the fleet stops must return within its timeout (not hang, not panic);
// once the fleet is down it reports no agreement.
func TestFleetWaitForAgreementRacesStop(t *testing.T) {
	f, err := NewFleet(fleetOpts(3, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := f.WaitForAgreement(2 * time.Second)
		done <- ok
	}()
	f.Stop()
	select {
	case <-done:
		// Either outcome is legal (the race may resolve before the stop);
		// what matters is that the call returned.
	case <-time.After(10 * time.Second):
		t.Fatal("WaitForAgreement hung across Stop")
	}
	// After Stop the processes are all down: no agreement is reachable.
	if _, ok := f.WaitForAgreement(200 * time.Millisecond); ok {
		t.Error("stopped fleet reported agreement")
	}
}
