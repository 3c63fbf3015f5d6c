package omegasm

import (
	"testing"

	"omegasm/internal/consensus"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// trackerBench is a three-replica store with a fixed leader, stepped by
// hand: the smallest environment the shared write tracker runs in.
func trackerBench(t *testing.T, slots, ckptEvery int) *kvEnv {
	t.Helper()
	env := &kvEnv{}
	fillBench(t, env, slots, ckptEvery)
	return env
}

// fillBench builds trackerBench's environment in place, for a caller
// that embeds it (a KV around a hand-stepped kvMachine).
func fillBench(t *testing.T, env *kvEnv, slots, ckptEvery int) {
	t.Helper()
	const n = 3
	log, err := consensus.NewCheckpointLog(shmem.NewSimMem(n), n, slots, 1, ckptEvery)
	if err != nil {
		t.Fatal(err)
	}
	env.stores = make([]*consensus.KV, n)
	env.leader = func() (int, bool) { return 0, true }
	env.estimate = func(int) int { return 0 }
	env.alive = func(int) bool { return true }
	env.wake = func(int) {}
	env.burst = 8
	for i := range env.stores {
		if env.stores[i], err = newStore(log, i, func() int { return 0 }, env); err != nil {
			t.Fatal(err)
		}
	}
}

// stepAll runs rounds of one burst per replica until done reports true.
func stepAll(t *testing.T, env *kvEnv, now *vclock.Time, done func() bool) {
	t.Helper()
	for round := 0; !done(); round++ {
		if round > 10_000 {
			t.Fatal("stores made no progress")
		}
		for _, s := range env.stores {
			*now++
			s.StepBurst(*now, env.burst)
		}
	}
}

// TestTrackerResubmitsWhenCheckpointHidesTheCommit pins a liveness bug
// both engines shared: a write whose commit was summarized into a
// checkpoint on every replica before the tracker's next scan could never
// be confirmed — and, still queued under the same leader and drop
// generation, was never resubmitted either, so the call hung until the
// next leadership change (seconds, live: PutAll groups straddling a seal
// under CPU contention). A scan that finds entries skipped must put the
// writes queued on that replica back up for submission.
func TestTrackerResubmitsWhenCheckpointHidesTheCommit(t *testing.T) {
	env := trackerBench(t, 8, 2)
	var now vclock.Time
	tr := newWriteTracker(env, 1)
	cmd := consensus.EncodeSet(7, 70)
	tr.add(cmd)
	if l, queued, err := tr.submit(now); l != 0 || !queued || err != nil {
		t.Fatalf("first submit = (%d, %t, %v), want it queued on the leader", l, queued, err)
	}
	// Commit it, then push every replica through two more seals without
	// the tracker looking: the retained tails are trimmed past the write.
	for k := uint16(0); k < 6; k++ {
		if err := env.stores[0].Set(100+k, k); err != nil {
			t.Fatal(err)
		}
	}
	stepAll(t, env, &now, func() bool {
		for _, s := range env.stores {
			if s.Applied() < 7 || s.Checkpoints() < 2 {
				return false
			}
		}
		return true
	})
	if v, ok := env.stores[2].Get(7); !ok || v != 70 {
		t.Fatalf("the write did not commit: Get(7) = (%d, %t)", v, ok)
	}
	tr.confirm(now)
	if tr.outstanding != 1 {
		t.Fatalf("outstanding = %d: the scenario no longer hides the commit from the scan; rebuild it", tr.outstanding)
	}
	// The fix: the scan noticed the gap, so the write goes out again…
	if _, queued, err := tr.submit(now); !queued || err != nil {
		t.Fatalf("submit after a skipped scan = (queued %t, %v); the write would wait forever", queued, err)
	}
	// …commits a second time (idempotent), and this time is seen.
	stepAll(t, env, &now, func() bool {
		tr.confirm(now)
		return tr.outstanding == 0
	})
	if w := tr.writes[0]; w.doneAt != now {
		t.Errorf("write = %+v, want confirmed at t=%d", w, now)
	}
}

// TestTrackerDedupWatermarksAndOrder covers the tracker's bookkeeping on
// one quiet store: a historical identical command never confirms a later
// write, every waiter of a command confirms on one commit, and unconfirmed
// writes are submitted once per reign, in order.
func TestTrackerDedupWatermarksAndOrder(t *testing.T) {
	env := trackerBench(t, 64, 0)
	var now vclock.Time
	cmd := consensus.EncodeSet(1, 10)
	if err := env.stores[0].Set(1, 10); err != nil {
		t.Fatal(err)
	}
	stepAll(t, env, &now, func() bool { return env.stores[2].Applied() == 1 })

	tr := newWriteTracker(env, 4)
	a, b := tr.add(cmd), tr.add(cmd) // two clients, same command
	c := tr.add(consensus.EncodeSet(2, 20))
	if tr.head(cmd) != b || tr.head(consensus.EncodeSet(9, 9)) >= 0 {
		t.Error("head() disagrees with what was added")
	}
	if tr.confirm(now); tr.outstanding != 3 {
		t.Fatalf("outstanding = %d after a scan of history: an old identical command confirmed a new write", tr.outstanding)
	}
	if _, queued, _ := tr.submit(now); !queued || env.stores[0].PendingLen() != 3 {
		t.Fatalf("submit queued %t, leader holds %d commands, want 3", queued, env.stores[0].PendingLen())
	}
	if _, queued, _ := tr.submit(now); queued {
		t.Error("a second submit under the same reign queued the writes again")
	}
	stepAll(t, env, &now, func() bool {
		tr.confirm(now)
		return tr.outstanding == 0
	})
	for _, j := range []int{a, b, c} {
		if !tr.writes[j].done() {
			t.Errorf("write %d unconfirmed", j)
		}
	}
	if got := env.stores[1].Committed(); len(got) != 4 || got[1] != cmd || got[2] != cmd || got[3] != consensus.EncodeSet(2, 20) {
		t.Errorf("committed stream %v: want the three writes after the historical one, in submission order", got)
	}
	// A queue sweep (drop generation moves) forces a resubmit of what is
	// still unconfirmed, and only that.
	d := tr.add(consensus.EncodeSet(3, 30))
	tr.submit(now)
	env.stores[0].DropPending()
	if _, queued, _ := tr.submit(now); !queued || env.stores[0].PendingLen() != 1 {
		t.Errorf("after a sweep: queued %t, leader holds %d, want the one unconfirmed write back", queued, env.stores[0].PendingLen())
	}
	stepAll(t, env, &now, func() bool {
		tr.confirm(now)
		return tr.writes[d].done()
	})
}
