package omegasm

import (
	"testing"
	"time"
)

func TestAlgorithmString(t *testing.T) {
	if WriteEfficient.String() != "WriteEfficient" {
		t.Error(WriteEfficient.String())
	}
	if Bounded.String() != "Bounded" {
		t.Error(Bounded.String())
	}
	if NWnR.String() != "NWnR" {
		t.Error(NWnR.String())
	}
	if TimerFree.String() != "TimerFree" {
		t.Error(TimerFree.String())
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Error(Algorithm(9).String())
	}
}

// fastOpts is the fast-paced atomic-substrate configuration most tests
// run with.
func fastOpts(n int) []Option {
	return []Option{
		WithN(n),
		WithStepInterval(100 * time.Microsecond),
		WithTimerUnit(time.Millisecond),
	}
}

func startCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	c, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestClusterElection elects under every exposed algorithm variant; under
// -race this doubles as the data-race check for all four on the live
// runtime.
func TestClusterElection(t *testing.T) {
	for _, algo := range []Algorithm{
		WriteEfficient, Bounded, NWnR, TimerFree,
	} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, append(fastOpts(4), WithAlgorithm(algo))...)
			leader, ok := c.WaitForAgreement(10 * time.Second)
			if !ok {
				t.Fatal("no agreement")
			}
			if l, err := c.Leader(leader); err != nil || l != leader {
				t.Errorf("leader's own estimate: %d, %v", l, err)
			}
			if c.N() != 4 {
				t.Errorf("N() = %d", c.N())
			}
			if c.set.algorithm != algo || c.DiskCount() != 0 {
				t.Errorf("runs %v over %d disks", c.set.algorithm, c.DiskCount())
			}
		})
	}
}

func TestClusterCrashReElection(t *testing.T) {
	c := startCluster(t, fastOpts(4)...)
	leader, ok := c.WaitForAgreement(10 * time.Second)
	if !ok {
		t.Fatal("no agreement")
	}
	if err := c.Crash(leader); err != nil {
		t.Fatal(err)
	}
	if !c.Crashed(leader) {
		t.Error("Crashed() false")
	}
	next, ok := c.WaitForAgreement(20 * time.Second)
	if !ok {
		t.Fatal("no re-election")
	}
	if next == leader {
		t.Fatalf("crashed leader %d re-elected", leader)
	}
}

func TestStatsRequiresInstrumentation(t *testing.T) {
	c := startCluster(t, WithN(2))
	if c.Stats() != nil {
		t.Error("Stats() non-nil without Instrument")
	}
	// Still nil after the cluster has done real work.
	c.WaitForAgreement(5 * time.Second)
	if c.Stats() != nil {
		t.Error("Stats() non-nil after running without Instrument")
	}
}

func TestStatsShape(t *testing.T) {
	c := startCluster(t, append(fastOpts(3), WithInstrumentation())...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	s := c.Stats()
	if s == nil {
		t.Fatal("Stats() nil with Instrument")
	}
	if len(s.Writers) != 3 || len(s.Readers) != 3 {
		t.Fatalf("per-process slices sized %d/%d", len(s.Writers), len(s.Readers))
	}
	// Algorithm 1 on 3 processes: suspicions 9 + progress 3 + stop 3.
	if len(s.Registers) != 15 {
		t.Errorf("register count = %d, want 15", len(s.Registers))
	}
	if s.TotalBits < 15 {
		t.Errorf("TotalBits = %d, implausibly small", s.TotalBits)
	}
	// Every initial estimate is 0, so agreement can hold before any T2
	// step has written a register: wait for the first write.
	for deadline := time.Now().Add(10 * time.Second); ; s = c.Stats() {
		var writes uint64
		for _, w := range s.Writers {
			writes += w
		}
		if writes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no writes recorded 10s after an election")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatchObservesFailover(t *testing.T) {
	c := startCluster(t, fastOpts(4)...)
	events, cancel := c.Watch(200 * time.Microsecond)
	defer cancel()

	waitEvent := func(match func(LeadershipEvent) bool) (LeadershipEvent, bool) {
		deadline := time.After(15 * time.Second)
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					return LeadershipEvent{}, false
				}
				if match(ev) {
					return ev, true
				}
			case <-deadline:
				return LeadershipEvent{}, false
			}
		}
	}

	first, ok := waitEvent(func(e LeadershipEvent) bool { return e.Agreed })
	if !ok {
		t.Fatal("never observed agreement")
	}
	if err := c.Crash(first.Leader); err != nil {
		t.Fatal(err)
	}
	next, ok := waitEvent(func(e LeadershipEvent) bool {
		return e.Agreed && e.Leader != first.Leader
	})
	if !ok {
		t.Fatal("never observed failover")
	}
	if next.Leader == first.Leader {
		t.Fatalf("failover to the crashed leader %d", next.Leader)
	}
}

// TestWatchCoalescesForSlowReceiver is the regression test for the
// latest-wins delivery path: a receiver that never drains the channel must
// not block the watcher, the buffer must never hold more than the single
// most recent change, and the first receive after a burst of leadership
// changes must observe a change newer than the crash, not the oldest one.
// Which change that is cannot be pinned: Omega is only eventually stable,
// so agreement may be lost again right after WaitForAgreement returns,
// and that event is then legitimately the newest.
func TestWatchCoalescesForSlowReceiver(t *testing.T) {
	c := startCluster(t, fastOpts(4)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no initial agreement")
	}

	// Subscribe but do not receive while the leadership churns: the crash
	// forces at least two further changes (agreement lost, new leader).
	events, cancel := c.Watch(100 * time.Microsecond)
	defer cancel()
	time.Sleep(5 * time.Millisecond) // watcher delivers the initial state
	// Crash whoever leads now: a start-up agreement can still move in
	// those 5 ms, and crashing a process that no longer leads would force
	// no change at all.
	first, ok := c.WaitForAgreement(10 * time.Second)
	if !ok {
		t.Fatal("agreement lost before the crash and not regained")
	}
	crashed := time.Now()
	if err := c.Crash(first); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForAgreement(20 * time.Second); !ok {
		t.Fatal("no re-election")
	}
	time.Sleep(20 * time.Millisecond) // let the watcher observe the new state

	// The watcher must have kept running (not blocked on the full buffer)
	// and replaced the stale initial agreement with a later change:
	// receiving once, without waiting, must yield an event from after the
	// crash.
	var ev LeadershipEvent
	select {
	case ev = <-events:
	default:
		t.Fatal("no event buffered after leadership changes (watcher stalled or dropped the newest event)")
	}
	if (ev.Agreed && ev.Leader == first) || !ev.At.After(crashed) {
		t.Fatalf("first receive after churn = %+v; want a change observed after the crash of %d at %v", ev, first, crashed)
	}
	if cap(events) != 1 {
		t.Fatalf("channel buffers %d events; it must carry only the most recent change", cap(events))
	}
	// From there the stream must reach the re-election.
	deadline := time.After(5 * time.Second)
	for !ev.Agreed || ev.Leader == first {
		select {
		case ev = <-events:
		case <-deadline:
			t.Fatalf("no agreement on a new leader within 5s of the churn; last event %+v", ev)
		}
	}
}

func TestWatchCancelAfterStop(t *testing.T) {
	c, err := New(WithN(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	events, cancel := c.Watch(time.Millisecond)
	c.Stop()
	cancel() // watcher outlives Stop by contract; cancel must still end it
	if _, ok := <-events; ok {
		// Drain until close; the channel must close after cancel.
		for range events {
		}
	}
}

func TestWatchCancelClosesChannel(t *testing.T) {
	c := startCluster(t, WithN(2))
	events, cancel := c.Watch(0) // default interval
	cancel()
	cancel() // idempotent
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return // closed as promised
			}
		case <-deadline:
			t.Fatal("channel not closed after cancel")
		}
	}
}
