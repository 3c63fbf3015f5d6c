package omegasm

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omegasm/internal/engine"
	"omegasm/internal/stats"
)

// The crash episode below has the shape of the repo benchmark's
// kv_failover_open workload (benchmark/failover.go): a fresh
// three-process store, 200 warm Puts, then one Put every 2ms on schedule,
// and a Crash of whoever is the agreed leader while the schedule runs.
const (
	epWarmPuts = 200
	epGap      = 2 * time.Millisecond
	epSettle   = 100 * time.Millisecond
	epCrashAt  = 50 // arrival index the crash lands before
	epTail     = 25 // arrivals sent after service resumed
	epKeyBase  = 1000
)

// crashEpisode is what one episode measured, every duration from the
// Crash call.
type crashEpisode struct {
	// outage ends when the first Put due after the crash is acknowledged.
	outage time.Duration
	// selfNamed ends when the first survivor's estimate names itself, and
	// reagree when AgreedLeader names a live process again. Both are
	// sampled by a sleeping poller, so their resolution is the host's
	// timer granularity, and on a busy host the poller can sleep through
	// them: no write commits before a survivor names itself, nor on a
	// lease-reading store before re-agreement, so the outage bounds them
	// from above and stands in for a missed observation.
	selfNamed, reagree time.Duration
	// epochs is how many lease grants the store handed out while the
	// schedule ran. One is the floor: the successor's.
	epochs uint64
}

// openStore starts a three-process cluster built from opts, waits for its
// first agreement and opens a store on it. stop closes both; episodes of
// one benchmark run call it as they end, so it is not a Cleanup.
func openStore(tb testing.TB, opts []Option, kvOpts ...KVOption) (c *Cluster, kv *KV, stop func()) {
	tb.Helper()
	c, err := New(append([]Option{WithN(3)}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Start(); err != nil {
		tb.Fatal(err)
	}
	if _, ok := c.WaitForAgreement(30 * time.Second); !ok {
		c.Stop()
		tb.Fatal("no agreement")
	}
	kv, err = NewKV(c, kvOpts...)
	if err != nil {
		c.Stop()
		tb.Fatal(err)
	}
	return c, kv, func() { kv.Close(); c.Stop() }
}

// readUnderLease makes kv a lease-reading store: it issues the store's
// first ReadLease, which switches lease authority on (and itself falls
// back to a quorum read), then waits out the switch's eps. From then on
// the agreed leader claims a grant at its next step, as it did at every
// step before a store's first lease read became the switch.
func readUnderLease(tb testing.TB, kv *KV) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, _, err := kv.Read(ctx, 0, ReadLease); err != nil {
		tb.Fatalf("first ReadLease: %v", err)
	}
	for kv.now() <= kv.leaseOn.Load()+kv.acquireEps {
		time.Sleep(kv.interval)
	}
}

// runCrashEpisode runs one episode on a cluster built from opts and a
// store built from kvOpts; with leased set the store reads under the
// lease from the start (readUnderLease), so the successor waits out the
// dead holder's grant. With checked set it also holds the store to its
// guarantees through the fault: a linearizable read — ReadLease on a
// leased store, ReadQuorum otherwise, which a ReadLease would make leased
// — issued while the outage lasts observes the last acknowledged write,
// and every acknowledged write reads back through the log afterwards.
func runCrashEpisode(tb testing.TB, opts []Option, kvOpts []KVOption, leased, checked bool) crashEpisode {
	tb.Helper()
	c, kv, closeStore := openStore(tb, opts, kvOpts...)
	defer closeStore()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	checkMode := ReadQuorum
	if leased {
		readUnderLease(tb, kv)
		checkMode = ReadLease
	}
	for i := 0; i < epWarmPuts; i++ {
		if err := kv.Put(ctx, uint16(i), uint16(i)); err != nil {
			tb.Fatalf("warm Put %d: %v", i, err)
		}
	}
	time.Sleep(epSettle)

	var (
		ep       crashEpisode
		crashT   time.Time
		resumed  = -1 // arrival whose acknowledgement ended the outage
		acked    atomic.Int64
		served   = make(chan struct{}) // closed when the outage ends
		stop     = make(chan struct{}) // closed when the schedule ends
		watchers sync.WaitGroup
		epoch0   uint64
	)
	acked.Store(-1)
	if kv.lease != nil {
		g, _ := kv.lease.Peek()
		epoch0 = g.Epoch
	}
	val := func(i int) uint16 { return uint16(i + 1) }
	start := time.Now()
	for i := 0; resumed < 0 || i < resumed+epTail; i++ {
		due := start.Add(time.Duration(i) * epGap)
		time.Sleep(time.Until(due))
		if i == epCrashAt {
			// Omega is only eventually stable: crash whoever leads now.
			leader, ok := c.WaitForAgreement(30 * time.Second)
			if !ok {
				tb.Fatal("agreement lost before the crash")
			}
			crashT = time.Now()
			if err := c.Crash(leader); err != nil {
				tb.Fatal(err)
			}
			watchers.Add(1)
			go func() {
				defer watchers.Done()
				for {
					for p := 0; p < c.N() && ep.selfNamed == 0; p++ {
						if l, _ := c.Leader(p); l == p && !c.Crashed(p) {
							ep.selfNamed = time.Since(crashT)
						}
					}
					if l, ok := c.AgreedLeader(); ok && !c.Crashed(l) {
						ep.reagree = time.Since(crashT)
						if ep.selfNamed == 0 {
							ep.selfNamed = ep.reagree
						}
						return
					}
					select {
					case <-stop:
						return
					case <-time.After(100 * time.Microsecond):
					}
				}
			}()
			if checked {
				watchers.Add(1)
				go func() {
					defer watchers.Done()
					for {
						// Loaded before the read begins, so the write it
						// names was acknowledged before the read was issued.
						j := int(acked.Load())
						v, found, err := kv.Read(ctx, uint16(epKeyBase+j), checkMode)
						if err != nil || !found || v != val(j) {
							tb.Errorf("read mode %d during the outage: write %d reads %d,%v,%v, want %d", checkMode, j, v, found, err, val(j))
						}
						select {
						case <-stop:
							return
						case <-time.After(200 * time.Microsecond):
						}
					}
				}()
			}
		}
		if err := kv.Put(ctx, uint16(epKeyBase+i), val(i)); err != nil {
			tb.Fatalf("Put %d: %v", i, err)
		}
		acked.Store(int64(i))
		if !crashT.IsZero() && resumed < 0 {
			ep.outage = time.Since(crashT)
			resumed = i
			close(served)
		}
	}
	close(stop)
	watchers.Wait()
	if ep.reagree == 0 {
		ep.reagree = ep.outage
	}
	if ep.selfNamed == 0 {
		ep.selfNamed = ep.outage
	}
	if checked {
		for i := 0; i <= int(acked.Load()); i++ {
			if v, found, err := kv.Read(ctx, uint16(epKeyBase+i), ReadQuorum); err != nil || !found || v != val(i) {
				tb.Errorf("acknowledged write %d reads back %d,%v,%v, want %d", i, v, found, err, val(i))
			}
		}
	}
	if kv.lease != nil {
		g, _ := kv.lease.Peek()
		ep.epochs = g.Epoch - epoch0
	}
	return ep
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkFailoverLeaseSweep is the sweep the default lease is picked
// from (see defaultLeaseDur): one crash episode per iteration at each
// lease length, in timer units of the substrate, on a store that reads
// under the lease from the start (a store that never does waits for no
// grant). It reports the outage a client sees, the re-agreement time the
// outage cannot go below, and the lease epochs granted per episode while
// the schedule ran — one is the floor (the successor's); more means a
// grant lapsed or leadership moved again. Run with -benchtime 30x;
// CHANGES.md records the table.
func BenchmarkFailoverLeaseSweep(b *testing.B) {
	disks := SANConfig{Disks: 5, BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond}
	for _, sub := range []struct {
		name   string
		medium substrate
		opts   []Option
		units  []int
	}{
		{"atomic", atomicSubstrate{}, nil, []int{0, 2, 3, 4, 5, 6, 10}},
		{"san", sanSubstrate{disks}, []Option{WithSAN(disks)}, []int{5, 10}},
	} {
		_, unit := sub.medium.pacing()
		for _, units := range sub.units {
			b.Run(fmt.Sprintf("%s/lease=%du", sub.name, units), func(b *testing.B) {
				lease := time.Duration(units) * unit
				var outage, reagree []float64
				var epochs uint64
				for i := 0; i < b.N; i++ {
					ep := runCrashEpisode(b, sub.opts, []KVOption{kvLease(lease)}, true, false)
					outage = append(outage, millis(ep.outage))
					reagree = append(reagree, millis(ep.reagree))
					epochs += ep.epochs
				}
				sort.Float64s(outage)
				sort.Float64s(reagree)
				b.ReportMetric(stats.Percentile(outage, 50), "outage-p50-ms")
				b.ReportMetric(stats.Percentile(outage, 90), "outage-p90-ms")
				b.ReportMetric(stats.Percentile(reagree, 50), "reagree-p50-ms")
				b.ReportMetric(float64(epochs)/float64(b.N), "epochs/episode")
			})
		}
	}
}

// TestFailoverOutageInsideReagreement bounds what a client waits for
// after a leader crash, on each kind of store. A store that never reads
// under the lease routes writes to the first survivor that names itself,
// so its first write is acknowledged within a timer unit of that — not at
// re-agreement, and not a lease later. On a store that reads under the
// lease the successor's wait for the dead holder's grant hides inside the
// re-agreement it has to wait for anyway, so the first write lands within
// a timer unit or so of AgreedLeader naming a live process. The bounds
// are on differences, which a slow host moves far less than either time.
// Each episode's stamps are logged: they are the decomposition the
// benchmark's sleeping poller cannot give.
func TestFailoverOutageInsideReagreement(t *testing.T) {
	const episodes = 5
	for _, tc := range []struct {
		name   string
		leased bool
		// from picks the event the outage is measured beyond.
		from  func(crashEpisode) time.Duration
		bound time.Duration
		what  string
	}{
		{"lease-less", false, func(ep crashEpisode) time.Duration { return ep.selfNamed },
			engine.DefaultTimerUnit, "the first survivor naming itself: the store waits for unanimity"},
		{"lease-reading", true, func(ep crashEpisode) time.Duration { return ep.reagree },
			3 * time.Millisecond, "re-agreement: the lease is what clients wait for"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var beyond []float64
			for i := 0; i < episodes; i++ {
				ep := runCrashEpisode(t, nil, nil, tc.leased, true)
				t.Logf("episode %d: first self-naming %.2fms, outage %.2fms, re-agreement %.2fms, %d lease epochs",
					i, millis(ep.selfNamed), millis(ep.outage), millis(ep.reagree), ep.epochs)
				beyond = append(beyond, millis(ep.outage-tc.from(ep)))
			}
			sort.Float64s(beyond)
			if med := beyond[episodes/2]; med > millis(tc.bound) {
				t.Errorf("median outage ends %.2fms after %s, want within %v (all: %v)", med, tc.what, tc.bound, beyond)
			}
		})
	}
}

// TestLeaseDoesNotLapseUnderHealthyLeader: the default grant is short
// enough to hide inside re-agreement, and must still be long enough that
// a leader which never stopped leading keeps it — idle (refreshing on its
// own cadence) and under serial writes (extending per activation). A
// lapse shows as the holder re-acquiring its own grant under a new epoch,
// and as a dark spell for lease reads.
//
// Healthy is the operative word. A loaded host starves election
// processes into suspecting each other, and while the processes disagree,
// or agree on someone else, nobody extends: that costs a grant at any
// lease length and is Omega's price, not the lease's. So the sampler
// judges only settled stretches — the agreed leader has been the holder,
// and the sampler itself has been scheduled on time, for two full
// hand-overs (lease + eps) running.
func TestLeaseDoesNotLapseUnderHealthyLeader(t *testing.T) {
	c, kv, stop := openStore(t, nil)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	readUnderLease(t, kv)
	if err := kv.Put(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, ok := kv.LeaseHolder(); !ok; _, ok = kv.LeaseHolder() {
		if time.Now().After(deadline) {
			t.Fatal("no readable lease after the first Put")
		}
		time.Sleep(time.Millisecond)
	}

	// One window: sample once a millisecond through an idle phase, then a
	// writing one. Two grants are at least a lease plus eps apart, so the
	// sampler sees every epoch. It returns what the window held against
	// the lease, "" for nothing.
	const phase = 1500 * time.Millisecond
	late := time.Duration(kv.leaseDur) / 2 // a sampler starved this long says the holder was too
	settle := 2 * time.Duration(kv.leaseDur+kv.acquireEps)
	busy := 0 // windows in which leadership never settled
	window := func() string {
		var samples, settled, readable, lapses, regrants int
		prev, _ := kv.lease.Peek()
		sampler := time.NewTicker(time.Millisecond)
		defer sampler.Stop()
		writes := make(chan error, 1)
		begin := time.Now()
		last, unsettledAt := begin, begin
		for writing := false; ; {
			<-sampler.C
			now := time.Now()
			samples++
			g, _ := kv.lease.Peek()
			if l, ok := c.AgreedLeader(); !ok || l != g.Holder || now.Sub(last) > late {
				unsettledAt = now
			}
			last = now
			calm := now.Sub(unsettledAt) > settle
			if g.Epoch != prev.Epoch {
				regrants++
				if calm && g.Epoch == prev.Epoch+1 && g.Holder == prev.Holder {
					lapses++
					t.Logf("+%v: holder %d re-acquired its own grant, epoch %d -> %d", now.Sub(begin), g.Holder, prev.Epoch, g.Epoch)
				}
				prev = g
			}
			if calm {
				settled++
				if _, ok := kv.LeaseHolder(); ok {
					readable++
				}
			}
			if since := now.Sub(begin); since >= 2*phase {
				break
			} else if since >= phase && !writing {
				writing = true
				go func() {
					for i := 0; time.Since(begin) < 2*phase; i++ {
						if err := kv.Put(ctx, uint16(2+i%64), uint16(i)); err != nil {
							writes <- err
							return
						}
					}
					writes <- nil
				}()
			}
		}
		if err := <-writes; err != nil {
			t.Fatalf("Put in the writing phase: %v", err)
		}
		t.Logf("%d samples, %d settled, %d of those readable; %d grants, %d of them lapses", samples, settled, readable, regrants, lapses)
		switch {
		case settled*2 < samples:
			busy++
			return fmt.Sprintf("leadership was settled in only %d of %d samples", settled, samples)
		case lapses > 2:
			return fmt.Sprintf("the holder re-acquired its own lapsed grant %d times in 3s of settled leadership, want at most 2", lapses)
		case readable*100 < settled*99:
			return fmt.Sprintf("lease readable in %d of %d settled samples, want at least 99%%", readable, settled)
		}
		return ""
	}
	// A grant too short for its refresh cadence lapses in every window; a
	// neighbour's burst on a shared host spoils one. Three in a row fail —
	// unless leadership never settled in any, which says nothing about
	// the lease.
	var held []string
	for len(held) < 3 {
		against := window()
		if against == "" {
			return
		}
		held = append(held, against)
	}
	if busy == len(held) {
		t.Skipf("this host is too busy to tell a lapse from an election: %v", held)
	}
	t.Errorf("three windows in a row: %v", held)
}

// TestDarkLeaderSleepsToTheExpiry: an elected leader waiting out its dead
// predecessor's grant is woken by one timer set to the observed expiry
// plus eps, not by a poll at the fallback cadence. The store's engine is
// stopped and the successor's machine is driven by hand along its own
// hints, so every activation is counted.
func TestDarkLeaderSleepsToTheExpiry(t *testing.T) {
	c, kv, stop := openStore(t, nil, kvLease(40*time.Millisecond))
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	readUnderLease(t, kv)
	if err := kv.Put(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Freeze the store with the leader's grant fresh, then lose the leader.
	old, ok := c.WaitForAgreement(30 * time.Second)
	if !ok {
		t.Fatal("agreement lost")
	}
	if err := kv.Put(ctx, 2, 2); err != nil {
		t.Fatal(err)
	}
	kv.Close()
	grant, _ := kv.lease.Peek()
	if grant.Holder != old || grant.Expiry <= kv.now() {
		t.Skipf("leadership moved under the set-up: grant %+v, leader %d", grant, old)
	}
	if err := c.Crash(old); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	next := -1
	for next < 0 {
		if l, ok := c.AgreedLeader(); ok && !c.Crashed(l) {
			next = l
		} else if time.Now().After(deadline) {
			t.Fatal("no re-agreement")
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if kv.now() >= grant.Expiry {
		t.Skip("re-agreement outlasted the 40ms grant: nothing left to wait out")
	}

	m := &kvMachine{kv, replicaDriver{env: &kv.kvEnv, idx: next}}
	activations := 0
	for {
		hint := m.Step(kv.now())
		activations++
		if _, held := kv.lease.Held(next, kv.now()); held {
			break
		}
		if l, ok := c.AgreedLeader(); !ok || l != next {
			t.Skipf("leadership moved off %d while it waited", next)
		}
		switch hint.Kind {
		case engine.WakeAt:
			time.Sleep(time.Duration(hint.At - kv.now()))
		case engine.WakePark:
			t.Fatalf("elected leader %d parked without the lease after %d activations", next, activations)
		}
		if activations > 10000 {
			t.Fatal("no grant after 10000 activations")
		}
	}
	if g, _ := kv.lease.Peek(); g.Holder != next || g.Epoch != grant.Epoch+1 {
		t.Errorf("grant after the wait = %+v, want epoch %d held by %d", g, grant.Epoch+1, next)
	}
	t.Logf("%d activations between re-agreement and the grant", activations)
	if activations > 5 {
		t.Errorf("new leader took %d activations between re-agreement and its grant, want at most 5 (one timer, not a poll)", activations)
	}
}

// TestHolderDoesNotParkThroughDisagreement: an idle leaseholder whose
// refresh lands in a moment of disagreement must come back on its own,
// or the grant runs out under a leader that never stopped leading and
// lease reads stay dark until the next write: the watcher acts on target
// moves, and agreement returning to the same leader is none. The
// election's reports wake every replica on each estimate change; this
// pins the fallback that needs no report — a replica whose own oracle
// names it polls while the processes disagree. Followers still park: an
// idle store costs them nothing. Driven by hand on a stopped engine,
// with the disagreement injected through the environment's leader
// function.
func TestHolderDoesNotParkThroughDisagreement(t *testing.T) {
	c, kv, stop := openStore(t, nil)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	readUnderLease(t, kv)
	if err := kv.Put(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := kv.LeaseHolder(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no readable lease after the first Put")
		}
	}
	kv.Close()
	grant, _ := kv.lease.Peek()
	if grant.Epoch == 0 {
		t.Fatal("no grant after a committed Put")
	}
	kv.leader = func() (int, bool) { return -1, false }
	for i := 0; i < c.N(); i++ {
		m := &kvMachine{kv, replicaDriver{env: &kv.kvEnv, idx: i}}
		var hint engine.Hint
		for hint = m.Step(kv.now()); hint.Kind == engine.WakeNow; hint = m.Step(kv.now()) {
			// a follower may still be learning the Put's slot
		}
		if i == grant.Holder {
			if now := kv.now(); hint.Kind != engine.WakeAt || hint.At > now+int64(kv.interval) {
				t.Errorf("holder %d hinted %+v at %d while the processes disagree, want a wake within the fallback cadence", i, hint, now)
			}
		} else if hint.Kind != engine.WakePark {
			t.Errorf("follower %d hinted %+v on an idle store, want a park", i, hint)
		}
	}
}
