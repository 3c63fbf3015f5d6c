package omegasm

import (
	"testing"

	"omegasm/check"
	"omegasm/internal/consensus"
	"omegasm/internal/engine"
	"omegasm/internal/lease"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// targetBench is a three-replica store whose Omega outputs the test sets
// by hand (est[p] is what process p names), stepped by hand: the
// environment in which the write target can be moved at will.
type targetBench struct {
	env     *kvEnv
	est     []int
	drivers []*replicaDriver
	now     vclock.Time
}

func newTargetBench(t *testing.T, reg *lease.Register, leaseDur, eps int64) *targetBench {
	t.Helper()
	const n = 3
	b := &targetBench{env: &kvEnv{}, est: make([]int, n)}
	log, err := consensus.NewCheckpointLog(shmem.NewSimMem(n), n, 64, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	env := b.env
	env.stores = make([]*consensus.KV, n)
	env.leader = func() (int, bool) {
		for _, l := range b.est {
			if l != b.est[0] {
				return -1, false
			}
		}
		return b.est[0], true
	}
	env.estimate = func(p int) int { return b.est[p] }
	env.alive = func(int) bool { return true }
	env.wake = func(int) {}
	env.burst = 8
	env.lease, env.leaseDur, env.acquireEps = reg, leaseDur, eps
	for i := range env.stores {
		i := i
		if env.stores[i], err = newStore(log, i, func() int { return b.est[i] }, env); err != nil {
			t.Fatal(err)
		}
		b.drivers = append(b.drivers, &replicaDriver{env: env, idx: i})
	}
	return b
}

// name makes p (0 or 1) the target: every process names p, so they
// agree on it — or, with anarchy set, the last process names the other
// one of 0 and 1 instead, so there is no agreement and p is the target as
// the lowest process that names itself.
func (b *targetBench) name(p int, anarchy bool) {
	for i := range b.est {
		b.est[i] = p
	}
	if anarchy {
		b.est[len(b.est)-1] = 1 - p
	}
}

// step runs one activation of replica i, through the shared driver or,
// bare, as a store burst the driver's target logic never sees.
func (b *targetBench) step(i int, bare bool) {
	b.now++
	if bare {
		b.env.stores[i].StepBurst(b.now, b.env.burst)
		return
	}
	b.drivers[i].step(b.now)
}

// write runs one client Put of (key, val) on its own tracker: submit to
// the target, step the target until the commit is confirmed. It returns
// the operation for the history.
func (b *targetBench) write(t *testing.T, client int, key, val uint16, bare bool) check.Op {
	t.Helper()
	op := check.Op{Client: client, Kind: check.Put, Key: key, Val: val, Invoke: b.now, Return: -1}
	tr := newWriteTracker(b.env, 1)
	tr.add(consensus.EncodeSet(key, val))
	for steps := 0; tr.outstanding > 0; steps++ {
		if steps == 200 {
			t.Fatalf("Put(%d, %d) did not commit in 200 activations", key, val)
		}
		tr.confirm(b.now)
		l, _, err := tr.submit(b.now)
		if err != nil {
			t.Fatal(err)
		}
		if tr.outstanding > 0 && l >= 0 {
			b.step(l, bare)
		}
	}
	op.Return = b.now
	return op
}

// TestTargetMoveDropsStaleQueue forces the stale-queue hazard the target
// drops exist for, which the campaign grid does not reach: replica 1
// holds a queued write of key 5 while the target moves 1 -> 0 -> 1, and
// 0 commits that write and then a newer one of key 5 in between. Ahead of
// it in 1's queue sits a write whose caller gave up, so learning the
// commit of the write of key 5 does not pop it (a replica pops a learned
// command only off the head of its queue). If 1 keeps its queue it
// re-proposes both once it is the target again, the old write of key 5
// after the newer one, and a quorum read issued after both Puts were
// acknowledged returns the older value. Either drop closes it: the
// watcher's when it sees the target move, the driver's when replica 1
// steps under another target. Stepped bare — no drop at all — the same
// schedule is a checker violation, which is what shows the test bites.
// The target moves once with the processes agreeing on each target, and
// once in anarchy, each target only the lowest process naming itself.
func TestTargetMoveDropsStaleQueue(t *testing.T) {
	for _, anarchy := range []bool{false, true} {
		testTargetMove(t, anarchy)
	}
}

func testTargetMove(t *testing.T, anarchy bool) {
	for _, tc := range []struct {
		name string
		// watch runs the watcher at each target move; stepOld steps
		// replica 1 once while 0 is the target; bare bypasses the driver.
		watch, stepOld, bare bool
		wantOK               bool
	}{
		{"watcher-drop", true, false, false, true},
		{"driver-drop", false, true, false, true},
		{"no-drop", false, true, true, false},
	} {
		name := tc.name
		if anarchy {
			name += "/anarchy"
		}
		t.Run(name, func(t *testing.T) {
			b := newTargetBench(t, nil, 0, 0)
			w := newLeaderWatcher(b.env)
			observe := func() {
				if tc.watch {
					w.observe()
				}
			}
			b.name(1, anarchy)
			observe()
			// Client 3's write, then client 0's, are queued on replica 1,
			// which does not step; client 3 gives up on its write.
			abandoned := check.Op{Client: 3, Kind: check.Put, Key: 7, Val: 7, Invoke: b.now, Return: -1}
			gaveUp := newWriteTracker(b.env, 1)
			gaveUp.add(consensus.EncodeSet(7, 7))
			if _, _, err := gaveUp.submit(b.now); err != nil {
				t.Fatal(err)
			}
			stale := check.Op{Client: 0, Kind: check.Put, Key: 5, Val: 1, Invoke: b.now, Return: -1}
			tr := newWriteTracker(b.env, 1)
			tr.add(consensus.EncodeSet(5, 1))
			if l, queued, err := tr.submit(b.now); l != 1 || !queued || err != nil {
				t.Fatalf("first submit = (%d, %t, %v), want it queued on replica 1", l, queued, err)
			}
			// The target moves to 0: the tracker resubmits there and it
			// commits; then client 1 writes a newer value of the key.
			b.name(0, anarchy)
			observe()
			if tc.stepOld {
				b.step(1, tc.bare)
			}
			for steps := 0; tr.outstanding > 0; steps++ {
				if steps == 200 {
					t.Fatal("the resubmitted write did not commit")
				}
				tr.confirm(b.now)
				if l, _, err := tr.submit(b.now); err != nil || l != 0 {
					t.Fatalf("resubmit = (%d, %v), want replica 0", l, err)
				}
				b.step(0, tc.bare)
			}
			stale.Return = b.now
			b.now++ // the newer write is invoked after the stale one returned
			newer := b.write(t, 1, 5, 2, tc.bare)
			// Back to 1: it learns both commits, and proposes whatever it
			// still holds.
			b.name(1, anarchy)
			observe()
			if tgt, agreed := b.env.target(); tgt != 1 || agreed == anarchy {
				t.Fatalf("target (%d, agreed %t), want 1 with agreement %t", tgt, agreed, !anarchy)
			}
			for r := 0; r < 50; r++ {
				for i := range b.drivers {
					b.step(i, tc.bare)
				}
			}
			s := b.env.stores[1]
			if p := s.PendingLen(); p != 0 {
				t.Fatalf("replica 1 still holds %d queued commands", p)
			}
			got, found := s.Get(5)
			read := check.Op{Client: 2, Kind: check.Get, Mode: check.Quorum, Key: 5, Val: got, Found: found, Invoke: b.now, Return: b.now}
			h := &check.History{Ops: []check.Op{abandoned, stale, newer, read}, FinalApplied: s.Applied(), Final: s.Snapshot()}
			pos := 0
			s.VisitTail(0, func(cmd uint32) {
				k, v := consensus.DecodeSet(cmd)
				h.Commits = append(h.Commits, check.Commit{Pos: pos, Key: k, Val: v})
				pos++
			})
			v := check.Verify(h, check.Options{})
			t.Logf("stream %+v, read 5 = %d: violations %v", h.Commits, got, v.Violations)
			if v.OK() != tc.wantOK {
				t.Errorf("verdict ok = %t, want %t: read 5 = %d,%v after the stream %+v; violations %v", v.OK(), tc.wantOK, got, found, h.Commits, v.Violations)
			}
		})
	}
}

// TestLeaseSwitchEndsTargetAuthorityLikeAGrant: writes commit under
// target authority while no lease read has happened, without a grant;
// the switch then ends that authority the way an expiring grant ends a
// holder's — the first grant is acquired strictly after switch + eps, and
// no write commits between the switch and that grant.
func TestLeaseSwitchEndsTargetAuthorityLikeAGrant(t *testing.T) {
	const dur, eps = 100, 5
	reg := &lease.Register{}
	reg.EnableHistory()
	b := newTargetBench(t, reg, dur, eps)
	b.name(0, false)
	for i := uint16(0); i < 4; i++ {
		b.write(t, 0, i, i, false)
	}
	if g := reg.History(); len(g) != 0 {
		t.Fatalf("grants %+v before the first lease read, want none", g)
	}
	switchAt := b.now
	b.env.enableLease(switchAt)
	b.env.enableLease(switchAt + 50) // once on, it stays on where it was
	if on := b.env.leaseOn.Load(); on != switchAt {
		t.Fatalf("lease switched on at %d, want %d", on, switchAt)
	}
	op := b.write(t, 0, 9, 9, false)
	g := reg.History()
	if len(g) == 0 {
		t.Fatal("no grant after the switch")
	}
	if g[0].AcquiredAt <= switchAt+eps {
		t.Errorf("first grant acquired at %d, want strictly after switch %d + eps %d", g[0].AcquiredAt, switchAt, eps)
	}
	if op.Return < g[0].AcquiredAt {
		t.Errorf("a write submitted at the switch was confirmed at %d, before the first grant at %d", op.Return, g[0].AcquiredAt)
	}
}

// TestTargetAllocatesNothing: the driver asks for the target on every
// replica step and the arming gate on every arming, so on both engines
// the lookup — agreement scan, then the self-naming scan — must not
// allocate.
func TestTargetAllocatesNothing(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	kv, err := NewKV(c)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if avg := testing.AllocsPerRun(200, func() { kv.target() }); avg != 0 {
		t.Errorf("live target allocates %.2f times per call, want 0", avg)
	}

	cfg := SimKVConfig{N: 3, Seed: 1, Horizon: 1000}
	shard, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := engine.NewSim(engine.SimConfig{Seed: 1, Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	run, err := addSimShard(sim, shard)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if avg := testing.AllocsPerRun(200, func() { run.target() }); avg != 0 {
		t.Errorf("simulated target allocates %.2f times per call, want 0", avg)
	}
}
