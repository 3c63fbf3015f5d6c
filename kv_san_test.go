package omegasm

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"omegasm/internal/consensus"
	"omegasm/internal/engine"
	"omegasm/internal/vclock"
)

// startSANCluster starts an n=3 cluster over five simulated disks of the
// given per-operation latency with substrate-default pacing and waits for
// agreement.
func startSANCluster(t *testing.T, latency time.Duration) (c *Cluster, leader int) {
	t.Helper()
	c, err := New(WithN(3), WithSAN(SANConfig{Disks: 5, BaseLatency: latency, Jitter: latency / 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	leader, ok := c.WaitForAgreement(30 * time.Second)
	if !ok {
		t.Fatal("no agreement over the SAN")
	}
	return c, leader
}

// startSANStore opens a default-options store on such a cluster.
func startSANStore(t *testing.T, latency time.Duration) (*Cluster, *KV) {
	t.Helper()
	c, _ := startSANCluster(t, latency)
	kv, err := NewKV(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(kv.Close)
	return c, kv
}

// TestSANDefaultLeaseIsReadableAndIdleCommitsNothing pins the lapsing-lease
// defect: with the 20ms default a SAN leader's grant expired inside every
// consensus round (~45ms at 200us disks), so each Put re-acquired under a
// new epoch and paid a no-op barrier slot, the lease was never readable,
// and an idle leader committed barrier slots forever. A default SAN store
// must keep one grant across serial Puts, run one slot per Put, serve
// lease reads, and commit nothing while idle.
func TestSANDefaultLeaseIsReadableAndIdleCommitsNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		latency time.Duration
	}{
		{"ideal-disks", 0},
		{"200us-disks", 200 * time.Microsecond},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c, kv := startSANStore(t, tc.latency)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			readUnderLease(t, kv)
			put := func(k, v uint16) {
				t.Helper()
				if err := kv.Put(ctx, k, v); err != nil {
					t.Fatalf("Put(%d, %d): %v", k, v, err)
				}
			}
			for i := uint16(0); i < 5; i++ {
				put(i, i+100)
			}
			// Writes fence the fresh grant for free, so the lease is
			// readable as soon as the warm Puts are acknowledged.
			if h, ok := kv.LeaseHolder(); !ok {
				g, readable := kv.lease.Peek()
				t.Errorf("no readable lease after warm-up: holder %d, grant %+v readable=%v at %d",
					h, g, readable, kv.now())
			}
			if v, ok, err := kv.Read(ctx, 4, ReadLease); err != nil || !ok || v != 104 {
				t.Fatalf("lease read of key 4 = %d,%v,%v, want the acknowledged 104", v, ok, err)
			}

			// One grant, one slot per Put. Omega is only eventually stable,
			// so a window in which leadership moved proves nothing: retry it.
			for attempt := 0; ; attempt++ {
				leader, _ := c.AgreedLeader()
				g0, _ := kv.lease.Peek()
				slots0 := kv.SlotsUsed()
				for i := uint16(0); i < 10; i++ {
					put(1000+i, uint16(attempt)*16+i)
				}
				g1, _ := kv.lease.Peek()
				if l, ok := c.AgreedLeader(); !ok || l != leader || g1.Holder != g0.Holder {
					if attempt == 3 {
						t.Fatal("leadership moved in four windows of ten Puts")
					}
					continue
				}
				if g1.Epoch != g0.Epoch {
					t.Errorf("lease epoch advanced %d -> %d across ten serial Puts under one leader", g0.Epoch, g1.Epoch)
				}
				if got := kv.SlotsUsed() - slots0; got != 10 {
					t.Errorf("ten serial Puts used %d consensus slots, want 10", got)
				}
				break
			}

			// An idle leaseholder extends its grant; it must not commit.
			applied, slots := kv.Applied(), kv.SlotsUsed()
			time.Sleep(time.Second)
			if a, s := kv.Applied(), kv.SlotsUsed(); a != applied || s != slots {
				t.Errorf("idle second grew the log: applied %d -> %d, slots %d -> %d", applied, a, slots, s)
			}
			if _, ok := kv.LeaseHolder(); !ok {
				t.Error("lease went dark on an idle store")
			}
		})
	}
}

// TestSANCommitRunsNoEmptyBurst pins the decision polls a serial Put on
// the SAN no longer pays: the proposer's second poll of the DEC row in the
// micro-step whose learn poll already found it empty, the burst of polls
// of the next, undecided slot that a replica used to run right after
// committing, and the leader's poll of the next slot in the burst that
// committed its won slot. A follower's poll is a quorum round trip of its
// own; the leader's three polls per Put share the access of the scan its
// phase action begins with (the round trips themselves are pinned by
// internal/consensus's TestWonSlotIsThreeReadAccesses, which the census
// cannot see). A follower behind by a backlog must still learn all of it
// at CPU speed.
func TestSANCommitRunsNoEmptyBurst(t *testing.T) {
	t.Run("serial-puts", func(t *testing.T) {
		c, err := New(WithN(3), WithInstrumentation(),
			WithSAN(SANConfig{Disks: 5, BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond}))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		if _, ok := c.WaitForAgreement(30 * time.Second); !ok {
			t.Fatal("no agreement over the SAN")
		}
		kv, err := NewKV(c)
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		// decReads counts DEC register reads, by everyone and by leader.
		decReads := func(leader int) (all, byLeader uint64) {
			for _, r := range c.mem.Census().Snapshot().Regs {
				if r.Class == consensus.ClassDec {
					all += r.TotalReads()
					byLeader += r.ReadsBy[leader]
				}
			}
			return all, byLeader
		}
		for i := uint16(0); i < 5; i++ { // warm up: lease, fence, followers
			if err := kv.Put(ctx, i, i); err != nil {
				t.Fatal(err)
			}
		}
		// Per Put, the leader polls DEC once per micro-step of its slot
		// (three; its burst ends at the commit its ballot won), and each
		// follower twice: learn, then find the next slot empty — seven row
		// reads of three registers, 21. The leader's trailing poll of the
		// next slot made it eight row reads (24 register reads), and
		// before that two polls per micro-step, a trailing burst per
		// replica and a second step per notified wake made it about
		// seventeen (52). The bounds sit between the counts, leaving room
		// for a lease refresh every few Puts on a slow host.
		const puts, maxPerPut, maxLeaderPolls = 20, 22.5, 3.5
		for attempt := 0; ; attempt++ {
			leader, _ := c.AgreedLeader()
			all0, led0 := decReads(leader)
			for i := uint16(0); i < puts; i++ {
				if err := kv.Put(ctx, 100+i, uint16(attempt)); err != nil {
					t.Fatal(err)
				}
			}
			all1, led1 := decReads(leader)
			if l, ok := c.AgreedLeader(); !ok || l != leader {
				if attempt == 3 {
					t.Fatal("leadership moved in four windows of serial Puts")
				}
				continue
			}
			perPut := float64(all1-all0) / puts
			leaderPolls := float64(led1-led0) / float64(c.N()) / puts
			t.Logf("%.1f DEC register reads per serial Put, %.2f DEC row polls by the leader", perPut, leaderPolls)
			if perPut > maxPerPut {
				t.Errorf("%.1f DEC register reads per serial Put, want at most %.1f", perPut, maxPerPut)
			}
			if leaderPolls > maxLeaderPolls {
				t.Errorf("the leader polled the DEC row %.2f times per serial Put, want at most %.1f", leaderPolls, maxLeaderPolls)
			}
			break
		}
	})

	t.Run("follower-backlog", func(t *testing.T) {
		// A hand-stepped follower with the SAN's two-step burst: every
		// activation that leaves a backlog must ask for the CPU back at
		// once rather than wait for the fallback cadence or a notification.
		kv := &KV{interval: time.Hour}
		env := &kv.kvEnv
		fillBench(t, env, 64, 0)
		env.burst = 2
		var now vclock.Time
		const backlog = 9
		for k := uint16(0); k < backlog; k++ {
			if err := env.stores[0].Set(k, k); err != nil {
				t.Fatal(err)
			}
		}
		for env.stores[0].Applied() < backlog {
			now++
			env.stores[0].StepBurst(now, 8)
		}
		follower := &kvMachine{kv, replicaDriver{env: &kv.kvEnv, idx: 1}}
		for steps := 1; ; steps++ {
			now++
			hint := follower.Step(now)
			if kv.stores[1].Applied() == backlog {
				if hint != engine.Park() {
					t.Errorf("caught-up follower hinted %+v, want to park", hint)
				}
				if want := backlog/env.burst + 1; steps > want {
					t.Errorf("follower took %d activations to learn %d slots, want at most %d", steps, backlog, want)
				}
				break
			}
			if hint != engine.Now() {
				t.Fatalf("activation %d left %d of %d slots unlearned and hinted %+v, want to run again at once",
					steps, backlog-kv.stores[1].Applied(), backlog, hint)
			}
		}
	})
}

// TestDefaultLeaseFollowsTimerUnit pins the rule defaultLeaseDur states:
// the auto lease is three timer units on atomic registers (inside the four
// or so that re-agreement takes) and ten on the SAN (outliving a blocking
// consensus round), an explicit kvLease still means exactly what it says,
// and the acquire margin is five quarters of a timer unit whatever the
// lease — 2.5ms and 31.25ms on the substrates' default pacing.
func TestDefaultLeaseFollowsTimerUnit(t *testing.T) {
	san := WithSAN(SANConfig{Disks: 3})
	const ms = time.Millisecond
	for _, tc := range []struct {
		name       string
		opts       []Option
		kv         []KVOption
		lease, eps time.Duration
	}{
		{"atomic-default", nil, nil, 6 * ms, 2500 * time.Microsecond},
		{"atomic-timer-unit", []Option{WithTimerUnit(4 * ms)}, nil, 12 * ms, 5 * ms},
		{"san-default", []Option{san}, nil, 250 * ms, 31250 * time.Microsecond},
		{"san-timer-unit", []Option{san, WithTimerUnit(10 * ms)}, nil, 100 * ms, 12500 * time.Microsecond},
		{"explicit-san", []Option{san}, []KVOption{kvLease(7 * ms)}, 7 * ms, 31250 * time.Microsecond},
		{"explicit-atomic", nil, []KVOption{kvLease(40 * ms)}, 40 * ms, 2500 * time.Microsecond},
		{"off", nil, []KVOption{kvLease(0)}, 0, 0},
	} {
		c, err := New(append([]Option{WithN(3)}, tc.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		kv, err := NewKV(c, tc.kv...)
		if err != nil {
			t.Fatal(err)
		}
		if got := time.Duration(kv.leaseDur); got != tc.lease {
			t.Errorf("%s: lease = %v, want %v", tc.name, got, tc.lease)
		}
		if got := time.Duration(kv.acquireEps); got != tc.eps {
			t.Errorf("%s: acquireEps = %v, want %v", tc.name, got, tc.eps)
		}
		if (kv.lease == nil) != (tc.lease == 0) {
			t.Errorf("%s: lease register present = %v with lease %v", tc.name, kv.lease != nil, tc.lease)
		}
		kv.Close()
		c.Stop()
	}
}

// TestSANStoreSchedulerLifecycle drives the one-scheduler-per-replica
// store through its life: a PutAll survives the leader and a minority of
// disks crashing under it, a Put in flight when Close lands returns
// ErrClosed, a second Close is a no-op, and Close joined every scheduler
// — the goroutine count is back to what it was before NewKV (the
// cluster's own processes and disk pumps). Not parallel: it counts
// goroutines.
func TestSANStoreSchedulerLifecycle(t *testing.T) {
	c, leader := startSANCluster(t, 0)
	before := runtime.NumGoroutine()
	kv, err := NewKV(c)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if got := len(kv.engs); got != c.N()+1 {
		t.Fatalf("SAN store runs %d schedulers, want one per replica plus the watcher's", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := kv.Put(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}

	entries := make([]Entry, 200) // long enough to straddle the crashes
	for i := range entries {
		entries[i] = Entry{Key: uint16(100 + i), Val: uint16(i)}
	}
	result := make(chan error, 1)
	go func() { result <- kv.PutAll(ctx, entries...) }()
	if err := c.Crash(leader); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		if err := c.CrashDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-result; err != nil {
		t.Fatalf("PutAll across a leader crash and two disk crashes: %v", err)
	}
	for _, e := range entries {
		if v, ok := kv.Get(e.Key); !ok || v != e.Val {
			t.Fatalf("key %d = %d,%v after PutAll returned, want %d", e.Key, v, ok, e.Val)
		}
	}

	// With every process crashed a Put can only block; Close must end it.
	for p := 0; p < c.N(); p++ {
		if err := c.Crash(p); err != nil {
			t.Fatal(err)
		}
	}
	go func() { result <- kv.Put(context.Background(), 2, 2) }()
	select {
	case err := <-result:
		t.Fatalf("Put returned %v with no process left to serve it", err)
	case <-time.After(30 * time.Millisecond): // blocked, as it must be
	}
	kv.Close()
	select {
	case err := <-result:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight Put got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Put still blocked 2s after Close")
	}
	kv.Close() // idempotent

	waitGoroutines(t, before)
}
