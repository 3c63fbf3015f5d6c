package omegasm

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"omegasm/internal/vclock"
)

func TestKVPutGet(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := NewKV(c, KVSlots(64))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if kv.stores[0].Capacity() != 64 {
		t.Errorf("Capacity() = %d", kv.stores[0].Capacity())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for k := uint16(0); k < 8; k++ {
		if err := kv.Put(ctx, k, 100+k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	for k := uint16(0); k < 8; k++ {
		if v, ok := kv.Get(k); !ok || v != 100+k {
			t.Errorf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	if _, ok := kv.Get(999); ok {
		t.Error("Get of a never-written key reported ok")
	}
	if kv.Len() != 8 {
		t.Errorf("Len() = %d, want 8", kv.Len())
	}
	if kv.Applied() < 8 {
		t.Errorf("Applied() = %d, want >= 8", kv.Applied())
	}
	snap := kv.Snapshot()
	if len(snap) != 8 || snap[3] != 103 {
		t.Errorf("Snapshot() = %v", snap)
	}
	// Overwrite: last committed set wins.
	if err := kv.Put(ctx, 3, 999); err != nil {
		t.Fatal(err)
	}
	if v, _ := kv.Get(3); v != 999 {
		t.Errorf("after overwrite Get(3) = %d", v)
	}
	// Regression: re-writing a value the key held before must commit a
	// fresh log entry, not count the historical commit as success.
	if err := kv.Put(ctx, 3, 103); err != nil {
		t.Fatal(err)
	}
	if v, _ := kv.Get(3); v != 103 {
		t.Errorf("re-write of a prior value lost: Get(3) = %d, want 103", v)
	}
	// The reserved (0xFFFF, 0xFFFF) pair is rejected synchronously.
	if err := kv.Put(ctx, 0xFFFF, 0xFFFF); err == nil {
		t.Error("reserved pair accepted")
	}
}

// TestKVSurvivesLeaderCrash is the acceptance scenario: the store keeps
// serving reads and committing writes across a leader crash; committed
// pre-crash keys stay visible.
func TestKVSurvivesLeaderCrash(t *testing.T) {
	c := startCluster(t, fastOpts(4)...)
	leader, ok := c.WaitForAgreement(10 * time.Second)
	if !ok {
		t.Fatal("no agreement")
	}
	kv, err := NewKV(c, KVSlots(128))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for k := uint16(0); k < 5; k++ {
		if err := kv.Put(ctx, k, 10+k); err != nil {
			t.Fatalf("pre-crash put %d: %v", k, err)
		}
	}
	if err := c.Crash(leader); err != nil {
		t.Fatal(err)
	}
	// Reads keep answering immediately (from a surviving replica).
	if v, ok := kv.Get(0); !ok || v != 10 {
		t.Errorf("Get(0) after crash = %d, %v", v, ok)
	}
	// Writes resume once the survivors re-elect; Put retries internally.
	for k := uint16(5); k < 10; k++ {
		if err := kv.Put(ctx, k, 10+k); err != nil {
			t.Fatalf("post-crash put %d: %v", k, err)
		}
	}
	for k := uint16(0); k < 10; k++ {
		if v, ok := kv.Get(k); !ok || v != 10+k {
			t.Errorf("Get(%d) = %d, %v after failover", k, v, ok)
		}
	}
}

// TestKVReadModes exercises the three read modes live: leases are on by
// default, the agreed leader acquires and serves ReadLease locally, and
// both linearizable modes agree with the committed value.
func TestKVReadModes(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := NewKV(c, kvStepInterval(50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if kv.leaseDur <= 0 {
		t.Fatalf("lease = %v, want the default lease on", time.Duration(kv.leaseDur))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	readUnderLease(t, kv)
	if err := kv.Put(ctx, 7, 42); err != nil {
		t.Fatal(err)
	}
	// The holder appears once the agreed leader acquires and fences.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := kv.LeaseHolder(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease holder became readable")
		}
		time.Sleep(time.Millisecond)
	}
	for _, mode := range []ReadMode{
		ReadFreshest, ReadLease, ReadQuorum,
	} {
		v, ok, err := kv.Read(ctx, 7, mode)
		if err != nil || !ok || v != 42 {
			t.Errorf("Read(7, mode %d) = %d, %v, %v; want 42", mode, v, ok, err)
		}
		if _, ok, err := kv.Read(ctx, 999, mode); ok || err != nil {
			t.Errorf("Read(999, mode %d) = ok %v, err %v on absent key", mode, ok, err)
		}
	}
}

// TestLeaseReadZeroAllocs is the allocation regression gate for the
// lease-read fast path: once the holder's grant is readable, a
// ReadLease (and the ReadFreshest it builds on) is two atomic loads
// plus an array read — zero heap allocations per call.
func TestLeaseReadZeroAllocs(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := NewKV(c, kvStepInterval(50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	readUnderLease(t, kv)
	if err := kv.Put(ctx, 7, 42); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := kv.LeaseHolder(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease holder became readable")
		}
		time.Sleep(time.Millisecond)
	}
	for _, mode := range []ReadMode{ReadLease, ReadFreshest} {
		mode := mode
		avg := testing.AllocsPerRun(500, func() {
			if v, ok, err := kv.Read(ctx, 7, mode); err != nil || !ok || v != 42 {
				t.Fatalf("Read(7, mode %d) = %d, %v, %v", mode, v, ok, err)
			}
		})
		if avg != 0 {
			t.Errorf("read mode %d allocates %.2f times/op, want 0", mode, avg)
		}
	}
}

// TestKVReadModesLeaseOff covers the degraded configurations: kvLease(0)
// keeps both linearizable modes working via the quorum fence, and a store
// without a descriptor row rejects them with ErrReadUnsupported.
func TestKVReadModesLeaseOff(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := NewKV(c,
		kvStepInterval(50*time.Microsecond), kvLease(0))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if d := time.Duration(kv.leaseDur); d != 0 {
		t.Fatalf("lease = %v with kvLease(0)", d)
	}
	if _, ok := kv.LeaseHolder(); ok {
		t.Error("LeaseHolder() ok with leases disabled")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := kv.Put(ctx, 3, 9); err != nil {
		t.Fatal(err)
	}
	// ReadLease falls back to the quorum path; both stay linearizable.
	for _, mode := range []ReadMode{ReadLease, ReadQuorum} {
		if v, ok, err := kv.Read(ctx, 3, mode); err != nil || !ok || v != 9 {
			t.Errorf("Read(3, mode %d) = %d, %v, %v; want 9", mode, v, ok, err)
		}
	}

	// No descriptor row: unbatched, checkpoint-free logs have nowhere to
	// decide a fence no-op, so the linearizable modes refuse.
	c2 := startCluster(t, fastOpts(3)...)
	if _, ok := c2.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement on second cluster")
	}
	plain, err := NewKV(c2,
		kvCheckpointEvery(0), KVBatch(1),
		kvStepInterval(50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.Put(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := plain.Read(ctx, 1, ReadQuorum); err != ErrReadUnsupported {
		t.Errorf("ReadQuorum on plain store: err = %v, want ErrReadUnsupported", err)
	}
	if v, ok, err := plain.Read(ctx, 1, ReadFreshest); err != nil || !ok || v != 2 {
		t.Errorf("ReadFreshest on plain store = %d, %v, %v", v, ok, err)
	}
}

func TestKVValidation(t *testing.T) {
	if _, err := NewKV(nil); err == nil {
		t.Error("nil cluster accepted")
	}
	c := startCluster(t, fastOpts(2)...)
	if _, err := NewKV(c, KVSlots(0)); err == nil {
		t.Error("0 slots accepted")
	}
	if _, err := NewKV(c, kvStepInterval(0)); err == nil {
		t.Error("0 step interval accepted")
	}
	if _, err := NewKV(c, nil); err == nil {
		t.Error("nil KVOption accepted")
	}
	kv, err := NewKV(c, KVSlots(8))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if _, err := NewKV(c); err == nil {
		t.Error("second KV on one cluster accepted")
	}
}

// TestKVLogFull is the regression gate for disabled checkpointing: with
// kvCheckpointEvery(0) the log is the old fixed array — it exhausts after
// KVSlots writes and fails cleanly with ErrLogFull while reads keep
// working, exactly the pre-recycling behavior.
func TestKVLogFull(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := NewKV(c, KVSlots(4), kvCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for k := uint16(0); k < 4; k++ {
		if err := kv.Put(ctx, k, k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := kv.Put(ctx, 9, 9); err != ErrLogFull {
		t.Errorf("Put on a full log: %v, want ErrLogFull", err)
	}
	if v, ok := kv.Get(2); !ok || v != 2 {
		t.Errorf("read after log full: %d, %v", v, ok)
	}
	if kv.stores[0].CheckpointEvery() != 0 || kv.Checkpoints() != 0 {
		t.Error("checkpoint machinery engaged despite kvCheckpointEvery(0)")
	}
}

// TestKVSustainedStream is the unbounded-stream acceptance scenario: a
// default-options store (checkpointing on) pushes a write stream 10x its
// slot window with no ErrLogFull, recycling slots across multiple
// checkpoints, and the final state reads back exactly.
func TestKVSustainedStream(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	const slots = 32
	kv, err := NewKV(c, KVSlots(slots))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if kv.stores[0].CheckpointEvery() != slots/4 {
		t.Fatalf("CheckpointEvery() = %d, want the %d default", kv.stores[0].CheckpointEvery(), slots/4)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const writes = 10 * slots
	for k := 0; k < writes; k++ {
		if err := kv.Put(ctx, uint16(k%16), uint16(k)); err != nil {
			t.Fatalf("put %d of a 10x-capacity stream: %v", k, err)
		}
	}
	for k := uint16(0); k < 16; k++ {
		want := uint16(writes - 16 + int(k)) // the last write of each key
		if v, ok := kv.Get(k); !ok || v != want {
			t.Errorf("Get(%d) = (%d, %v), want %d", k, v, ok, want)
		}
	}
	if kv.SlotsUsed() <= slots {
		t.Fatalf("SlotsUsed() = %d over a %d-slot window: recycling never engaged", kv.SlotsUsed(), slots)
	}
	if kv.Checkpoints() < 3 {
		t.Fatalf("only %d checkpoints over a 10x stream", kv.Checkpoints())
	}
}

// TestKVPutWakesParkedReplicas is the wake-driven engine's latency
// contract: with a pathologically slow fallback poll interval, a Put must
// still commit promptly, because enqueueing the write notifies the
// parked leader machine instead of waiting for the next tick. A driver
// that polled would need ~interval per consensus micro-step round and
// blow the deadline by orders of magnitude.
func TestKVPutWakesParkedReplicas(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	const interval = time.Second
	kv, err := NewKV(c, KVSlots(32), kvStepInterval(interval))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A transient leadership flap can legitimately push one Put onto the
	// slow retry path, so demand the majority be fast rather than all.
	const puts = 5
	fast := 0
	for k := uint16(0); k < puts; k++ {
		start := time.Now()
		if err := kv.Put(ctx, k, k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		if time.Since(start) < interval/4 {
			fast++
		}
	}
	if fast < puts-1 {
		t.Fatalf("only %d/%d Puts beat the %v poll interval: writes are not waking the parked leader", fast, puts, interval)
	}
	for k := uint16(0); k < puts; k++ {
		if v, ok := kv.Get(k); !ok || v != k {
			t.Errorf("Get(%d) = %d, %v", k, v, ok)
		}
	}
}

// TestOnlyOriginSignalsCallers pins who closes the commit broadcast that
// blocked calls sleep on: the replica a commit came from — the agreed
// leader, or any replica that commits during anarchy — and not a
// follower that merely learned it, whose signal would only wake a caller
// the origin's tail had already confirmed.
func TestOnlyOriginSignalsCallers(t *testing.T) {
	t.Run("broadcast", func(t *testing.T) {
		c := startCluster(t, fastOpts(3)...)
		kv, err := NewKV(c)
		if err != nil {
			t.Fatal(err)
		}
		kv.Close() // nothing steps from here on: the calls below are the only signals
		signalled := kv.commits.wait()
		kv.progressed(1, false)
		select {
		case <-signalled:
			t.Fatal("a follower's learn woke the waiting callers")
		default:
		}
		kv.progressed(1, true)
		select {
		case <-signalled:
		default:
			t.Fatal("the origin's commit left the waiting callers asleep")
		}
	})

	t.Run("anarchy-is-origin", func(t *testing.T) {
		env := trackerBench(t, 16, 0)
		agreed := false
		env.leader = func() (int, bool) { return 0, agreed }
		type report struct {
			from   int
			origin bool
		}
		var got []report
		env.progressed = func(from int, origin bool) { got = append(got, report{from, origin}) }
		drivers := []*replicaDriver{{env: env, idx: 0}, {env: env, idx: 1}}
		var now vclock.Time
		advance := func(i int) {
			t.Helper()
			for steps := 0; ; steps++ {
				if steps == 64 {
					t.Fatalf("replica %d made no progress in 64 activations", i)
				}
				now++
				if drivers[i].step(now).progress > 0 {
					return
				}
			}
		}
		for _, reign := range []bool{false, true} {
			agreed = reign
			if err := env.stores[0].Set(1, 1); err != nil {
				t.Fatal(err)
			}
			advance(0) // commits
			advance(1) // learns
		}
		want := []report{{0, true}, {1, true}, {0, true}, {1, false}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("progress reports (anarchy, then a reign of 0) = %v, want %v", got, want)
		}
	})

	t.Run("leader-crash", func(t *testing.T) {
		// With a one-second fallback ticker, a Put confirmed in well under
		// it was woken by the survivors' own signal.
		c := startCluster(t, fastOpts(4)...)
		leader, ok := c.WaitForAgreement(10 * time.Second)
		if !ok {
			t.Fatal("no agreement")
		}
		const interval = time.Second
		kv, err := NewKV(c, kvStepInterval(interval))
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		for k := uint16(0); k < 3; k++ {
			if err := kv.Put(ctx, k, k); err != nil {
				t.Fatalf("pre-crash put %d: %v", k, err)
			}
		}
		if err := c.Crash(leader); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
			t.Fatal("survivors did not re-agree")
		}
		// A leadership flap can legitimately push one Put onto the retry
		// path, so demand the majority be fast rather than all.
		const puts = 5
		fast := 0
		for k := uint16(100); k < 100+puts; k++ {
			start := time.Now()
			if err := kv.Put(ctx, k, k); err != nil {
				t.Fatalf("post-crash put %d: %v", k, err)
			}
			if time.Since(start) < interval/4 {
				fast++
			}
			if v, ok := kv.Get(k); !ok || v != k {
				t.Errorf("Get(%d) = %d, %v after its Put returned", k, v, ok)
			}
		}
		if fast < puts-1 {
			t.Fatalf("only %d/%d post-crash Puts beat the %v fallback ticker: the survivors' commits are not waking callers", fast, puts, interval)
		}
	})
}

// TestKVCloseIdempotent checks Close twice and freezes the state.
func TestKVCloseIdempotent(t *testing.T) {
	c := startCluster(t, fastOpts(2)...)
	kv, err := NewKV(c)
	if err != nil {
		t.Fatal(err)
	}
	kv.Close()
	kv.Close()
	if _, ok := kv.Get(1); ok {
		t.Error("empty closed store answered a key")
	}
}

// TestKVClosedStoreReturnsErrClosed pins the lifecycle edge that used to
// hang: a blocking call on a closed store — issued after Close, or in
// flight when Close lands — spun on its fallback ticker forever, because
// nothing was left to commit it. Every blocking entry point must now
// return ErrClosed promptly. The in-flight cases crash every process
// first, so the call is certain to be blocked (no leader to route to)
// when Close arrives.
func TestKVClosedStoreReturnsErrClosed(t *testing.T) {
	ctx := context.Background() // no deadline: only Close can end the call
	putAll := func(kv *KV) error {
		return kv.PutAll(ctx, Entry{Key: 1, Val: 1}, Entry{Key: 2, Val: 2})
	}
	for _, tc := range []struct {
		name     string
		inFlight bool
		san      bool // one scheduler per replica: Close joins them all
		call     func(kv *KV) error
	}{
		{"put-after-close", false, false, func(kv *KV) error { return kv.Put(ctx, 1, 1) }},
		{"put-after-close-on-SAN", false, true, func(kv *KV) error { return kv.Put(ctx, 1, 1) }},
		{"read-quorum-after-close", false, false, func(kv *KV) error {
			_, _, err := kv.Read(ctx, 1, ReadQuorum)
			return err
		}},
		{"close-during-PutAll", true, false, putAll},
		{"close-during-PutAll-on-SAN", true, true, putAll},
		{"close-during-ReadQuorum", true, false, func(kv *KV) error {
			_, _, err := kv.Read(ctx, 1, ReadQuorum)
			return err
		}},
		{"close-during-ReadLease-fallback", true, false, func(kv *KV) error {
			_, _, err := kv.Read(ctx, 1, ReadLease)
			return err
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := fastOpts(3)
			if tc.san {
				opts = []Option{
					WithN(3), WithSAN(SANConfig{Disks: 3}),
					WithStepInterval(500 * time.Microsecond), WithTimerUnit(10 * time.Millisecond),
				}
			}
			c := startCluster(t, opts...)
			if _, ok := c.WaitForAgreement(30 * time.Second); !ok {
				t.Fatal("no agreement")
			}
			kv, err := NewKV(c, kvLease(2*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			result := make(chan error, 1)
			if tc.inFlight {
				for p := 0; p < c.N(); p++ {
					if err := c.Crash(p); err != nil {
						t.Fatal(err)
					}
				}
				go func() { result <- tc.call(kv) }()
				select {
				case err := <-result:
					t.Fatalf("call returned %v with no process left to serve it", err)
				case <-time.After(30 * time.Millisecond): // blocked, as it must be
				}
				kv.Close()
			} else {
				kv.Close()
				go func() { result <- tc.call(kv) }()
			}
			select {
			case err := <-result:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("got %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("call still blocked 2s after Close")
			}
			kv.Close() // a further Close stays a no-op
		})
	}
}
