package omegasm_test

import (
	"reflect"
	"testing"

	"omegasm"
)

func TestSimShardedKVValidation(t *testing.T) {
	if _, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{Shards: 0, N: 3}); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{Shards: 2, N: 1}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
		Shards: 2, N: 3, Crashes: []omegasm.SimShardCrash{{Shard: 5, Proc: 0, At: 1}},
	}); err == nil {
		t.Error("out-of-range crash shard accepted")
	}
	if _, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
		Shards: 2, N: 2,
		Crashes: []omegasm.SimShardCrash{{Shard: 0, Proc: 0, At: 1}, {Shard: 0, Proc: 1, At: 2}},
	}); err == nil {
		t.Error("crashing a whole shard accepted")
	}
	// Batched or checkpointing runs reserve the key 0xFFFF row; only a run
	// with both off accepts it.
	if _, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
		Shards: 2, N: 3, Writes: []omegasm.SimWrite{{At: 1, Key: 0xFFFF, Val: 1}},
	}); err == nil {
		t.Error("reserved key accepted on a batched run")
	}
	if _, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
		Shards: 2, N: 3, BatchSize: 1, Horizon: 1000,
		Writes: []omegasm.SimWrite{{At: 1, Key: 0xFFFF, Val: 1}},
	}); err == nil {
		t.Error("reserved key accepted on a checkpointing run")
	}
	if _, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
		Shards: 2, N: 3, BatchSize: 1, CheckpointEvery: -1, Horizon: 1000,
		Writes: []omegasm.SimWrite{{At: 1, Key: 0xFFFF, Val: 1}},
	}); err != nil {
		t.Errorf("key 0xFFFF rejected on a plain fixed-capacity run: %v", err)
	}
	if _, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
		Shards: 1, N: 17,
	}); err == nil {
		t.Error("17 processes accepted on a batched run")
	}
}

// TestSimShardedKVDeliversAcrossShards: a calm sharded run commits every
// routed write, the merged state matches a directly computed one, and
// traffic actually spreads over the shards.
func TestSimShardedKVDeliversAcrossShards(t *testing.T) {
	writes := simWorkload(40, 2_000, 600)
	res, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
		Shards: 4, N: 3, Seed: 11, Writes: writes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(writes) {
		t.Fatalf("delivered %d of %d writes", res.Delivered, len(writes))
	}
	want := map[uint16]uint16{}
	for _, w := range writes {
		want[w.Key] = w.Val
	}
	if !reflect.DeepEqual(res.State, want) {
		t.Fatalf("state %v, want %v", res.State, want)
	}
	busy := 0
	for s, sh := range res.Shards {
		if len(sh.Committed) > 0 {
			busy++
		}
		if sh.SlotsUsed > len(sh.Committed) {
			t.Errorf("shard %d used %d slots for %d commands", s, sh.SlotsUsed, len(sh.Committed))
		}
	}
	if busy < 2 {
		t.Fatalf("only %d shards saw traffic; routing is not spreading", busy)
	}
	if res.TotalCommitted < len(writes) {
		t.Fatalf("total committed %d < %d writes", res.TotalCommitted, len(writes))
	}
}

// TestSimShardedKVDeterministicReplay is the acceptance property: equal
// seeds give byte-identical per-shard commit histories, even with crashes
// mid-workload.
func TestSimShardedKVDeterministicReplay(t *testing.T) {
	cfg := omegasm.SimShardedKVConfig{
		Shards: 3, N: 4, Seed: 42, Horizon: 300_000,
		Writes: simWorkload(30, 2_000, 800),
		Crashes: []omegasm.SimShardCrash{
			{Shard: 1, Proc: 0, At: 60_000},
			{Shard: 2, Proc: 3, At: 120_000},
		},
	}
	a, err := omegasm.SimShardedKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := omegasm.SimShardedKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs diverged")
	}
	for s := range a.Shards {
		if !reflect.DeepEqual(a.Shards[s].Committed, b.Shards[s].Committed) {
			t.Fatalf("shard %d commit history diverged across replays", s)
		}
	}
	if a.TotalCommitted == 0 || a.Delivered == 0 {
		t.Fatal("vacuous: nothing committed")
	}
}

// TestSimShardedKVSaturationScalesWithShards pins the architecture's
// parallel capacity in virtual time, where it is exact for a seed and
// independent of the host: each machine owns a virtual processor, so
// under the closed-loop saturation workload aggregate commits must scale
// with the shard count, and batching must multiply them again.
func TestSimShardedKVSaturationScalesWithShards(t *testing.T) {
	run := func(cfg omegasm.SimShardedKVConfig) *omegasm.SimShardedKVResult {
		cfg.N, cfg.Horizon, cfg.SaturateWindow = 3, 30_000, 256
		res, err := omegasm.SimShardedKV(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for sh, sr := range res.Shards {
			if sr.SlotsUsed >= cfg.Slots {
				t.Fatalf("%d shards, batch %d: shard %d filled its log; the measurement is capacity-capped",
					cfg.Shards, cfg.BatchSize, sh)
			}
		}
		if res.TotalCommitted == 0 {
			t.Fatalf("%d saturated shards, batch %d, committed nothing", cfg.Shards, cfg.BatchSize)
		}
		return res
	}

	// Default options (checkpointing log, default batch): 4 shards commit
	// at least 3x one shard, with margin to spare for adversary variance,
	// and batching engages — far fewer slots than commands.
	one := run(omegasm.SimShardedKVConfig{Shards: 1, Seed: 7, Slots: 4096})
	four := run(omegasm.SimShardedKVConfig{Shards: 4, Seed: 7, Slots: 4096})
	if ratio := float64(four.TotalCommitted) / float64(one.TotalCommitted); ratio < 3 {
		t.Fatalf("4 shards committed only %.2fx of 1 shard (%d vs %d)",
			ratio, four.TotalCommitted, one.TotalCommitted)
	}
	if four.TotalSlots*2 >= four.TotalCommitted {
		t.Fatalf("batching not engaging: %d slots for %d commands",
			four.TotalSlots, four.TotalCommitted)
	}

	// The corners of the scaling grid, on fixed-capacity logs
	// (CheckpointEvery -1) so that only sharding and batching vary; each
	// log is sized so that no shard can fill it within the horizon.
	// Measured: 7.94x at 8 shards, 32.0x from a batch of 32.
	corner := func(batch, shards int) *omegasm.SimShardedKVResult {
		slots := 4096
		if batch == 1 {
			slots = 8192
		}
		return run(omegasm.SimShardedKVConfig{
			Shards: shards, Seed: 1, Slots: slots, CheckpointEvery: -1, BatchSize: batch,
		})
	}
	shardCounts := []int{1, 8}
	if testing.Short() {
		shardCounts = []int{1}
	}
	type at struct{ batch, shards int }
	got := map[at]*omegasm.SimShardedKVResult{}
	for _, batch := range []int{1, 32} {
		for _, shards := range shardCounts {
			got[at{batch, shards}] = corner(batch, shards)
		}
	}
	for _, shards := range shardCounts {
		plain, packed := got[at{1, shards}].TotalCommitted, got[at{32, shards}].TotalCommitted
		if packed < 30*plain {
			t.Errorf("%d shards: batch 32 committed %d, under 30x batch 1's %d", shards, packed, plain)
		}
	}
	for _, batch := range []int{1, 32} {
		base, wide := got[at{batch, 1}], got[at{batch, 8}]
		if wide != nil && wide.TotalCommitted < 7*base.TotalCommitted {
			t.Errorf("batch %d: 8 shards committed %d, under 7x one shard's %d",
				batch, wide.TotalCommitted, base.TotalCommitted)
		}
	}
	// A virtual-time result is a function of its configuration alone.
	a, b := got[at{32, 1}], corner(32, 1)
	if a.TotalCommitted != b.TotalCommitted || a.TotalSlots != b.TotalSlots {
		t.Errorf("one corner run twice: %d commands in %d slots, then %d in %d",
			a.TotalCommitted, a.TotalSlots, b.TotalCommitted, b.TotalSlots)
	}
}

// TestSimShardedKVOpenLoopReplay routes an open-loop request stream
// across shards and checks both completion and byte-identical replay.
func TestSimShardedKVOpenLoopReplay(t *testing.T) {
	reqs := make([]omegasm.SimRequest, 48)
	for i := range reqs {
		reqs[i] = omegasm.SimRequest{
			At:    2_000 + int64(i)*2_500,
			Key:   uint16(i * 37 % 97),
			Val:   uint16(300 + i),
			Read:  i%4 == 3,
			Class: i % 3,
		}
	}
	cfg := omegasm.SimShardedKVConfig{
		Shards: 4, N: 3, Seed: 31, Horizon: 600_000, Requests: reqs,
	}
	a, err := omegasm.SimShardedKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(reqs) {
		t.Fatalf("got %d request results, want %d", len(a.Requests), len(reqs))
	}
	for i, rr := range a.Requests {
		if rr.Index != i {
			t.Fatalf("result %d has Index %d", i, rr.Index)
		}
		if rr.Done < 0 {
			t.Fatalf("request %d incomplete at horizon (end=%d)", i, a.End)
		}
		if rr.Done < rr.At {
			t.Fatalf("request %d completed at %d before arrival %d", i, rr.Done, rr.At)
		}
	}
	b, err := omegasm.SimShardedKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different sharded results")
	}
}
