package omegasm

import (
	"omegasm/internal/consensus"
	"omegasm/internal/lease"
	"omegasm/internal/vclock"
)

// kvEnv is what genuinely differs between the two engines that run the
// store's protocol code — the live KV (real goroutines, wall clock) and
// the simulator (one goroutine, virtual clock, seeded adversary). The
// replica driver, the leadership watcher and the write tracker below and
// in tracker.go are written against it once, so a campaign verdict over
// simulated runs is a statement about the lines the live store ships.
// Nothing here is a caller-facing knob: each engine hard-wires its values,
// and the seeded SimMutations are the only way to bend one.
type kvEnv struct {
	// stores are the replicas' stores, indexed by process.
	stores []*consensus.KV
	// leader returns the process every live process currently names
	// leader, ok only when they agree and that process is itself alive.
	leader func() (leader int, ok bool)
	// alive reports whether process p has not crashed.
	alive func(p int) bool
	// wake schedules replica i's machine at the engine's next opportunity.
	wake func(i int)
	// progressed, when set, is told that replica from's burst advanced its
	// store; origin marks the commit's source (the agreed leader, or anyone
	// during anarchy). Live: wake the peers to learn, signal blocked
	// callers. The simulator leaves it nil — its machines never park, and
	// an extra wake would perturb the adversary's schedule.
	progressed func(from int, origin bool)
	// burst is how many replica micro-steps one activation runs at most
	// (live: 8, 2 on the SAN; simulator: 1, the pacing is the asynchrony
	// model); a burst ends at its first idle step.
	burst int
	// lease is the leader-lease register (nil: leases off), leaseDur the
	// grant length in engine time, and acquireEps how long past the
	// observed expiry an acquirer waits: a share of the lease on the wall
	// clock, 0 under the simulator (a machine's clock read and its effects
	// are one atomic activation), negative under MutPrematureLeaseExtend.
	lease                *lease.Register
	leaseDur, acquireEps int64
	// ackAtSubmit makes the write tracker acknowledge a write when it is
	// queued instead of when its commit is seen (MutDropQuorumAck).
	ackAtSubmit bool
}

// newStore builds process i's store over log, its proposer gated on the
// lease when there is one: no replica arms a proposal without holding the
// lease, which is what makes a valid lease exclusive commit authority
// (see internal/lease).
func newStore(log *consensus.Log, i int, oracle func() int, reg *lease.Register) (*consensus.KV, error) {
	replica, err := consensus.NewReplica(log, i, oracle)
	if err != nil {
		return nil, err
	}
	store, err := consensus.NewKV(replica)
	if err == nil && reg != nil {
		store.SetAuthority(func(t vclock.Time) bool {
			_, held := reg.Held(i, t)
			return held
		})
	}
	return store, err
}

// freshest returns the live replica with the longest committed prefix
// (the lowest index on ties), or -1 when none is alive. During anarchy —
// typically right after a leader crash — the survivors lag the dead
// leader by whatever they have not yet learned, and the freshest one
// minimizes the staleness window until the next election catches
// everyone up.
func (e *kvEnv) freshest() int {
	best, bestLen := -1, -1
	for i, s := range e.stores {
		if e.alive(i) {
			if n := s.CommittedLen(); n > bestLen {
				best, bestLen = i, n
			}
		}
	}
	return best
}

// replicaDriver is one replica's protocol step, shared by both engines.
type replicaDriver struct {
	env *kvEnv
	idx int

	// Lease state of this replica's reigns: acqGen is the store's fence
	// generation snapshot taken at the last acquisition, and barrierDone
	// records that the catch-up barrier for it has completed (the lease
	// was marked readable). Only this replica's machine touches them.
	acqGen      uint64
	barrierDone bool
}

// stepReport is what one driver activation tells the engine adapter,
// which turns it into a wake hint.
type stepReport struct {
	// progress, pending and idle are the burst's StepBurst results: how
	// far the store advanced, how many submitted commands remain
	// unproposed, and whether the burst ended at an idle step.
	progress, pending int
	idle              bool
	// leading: this replica is the agreed leader. holder: it also holds a
	// valid lease. barrier: it just queued a no-op catch-up barrier.
	leading, holder, barrier bool
}

// step runs one activation of replica idx at now: shed the queue under
// another leader's reign, keep the lease, step the store, fence a fresh
// grant, report progress.
func (d *replicaDriver) step(now vclock.Time) stepReport {
	env, store := d.env, d.env.stores[d.idx]
	leader, agreed := env.leader()
	// A replica that sees the cluster agreed on someone else sheds its own
	// queue before stepping. The polling watcher does the same once per
	// cadence, but a replica can take many bursts between watcher rounds,
	// so the stale-queue window ("a demoted leader re-proposes old writes
	// after newer ones when it regains leadership") must be closed at the
	// replica itself: by the first step it takes under another replica's
	// reign, the stale queue is gone. (Writers that still care resubmit.)
	if agreed && leader != d.idx {
		store.DropPending()
	}
	rep := stepReport{leading: agreed && leader == d.idx}
	// Lease housekeeping, before the burst so a fresh acquisition is
	// already the arming authority for it: the agreed leader extends its
	// grant while it holds, or (re)claims one the moment the previous
	// grant has expired. A demoted or crashed holder simply stops
	// extending and its grant lapses.
	var epoch uint64
	if env.lease != nil && rep.leading {
		if e, held := env.lease.Held(d.idx, now); held {
			rep.holder, epoch = true, e
			env.lease.Extend(d.idx, now, env.leaseDur)
		} else if e, ok := env.lease.Acquire(d.idx, now, env.leaseDur, env.acquireEps); ok {
			rep.holder, epoch = true, e
			d.acqGen = store.FenceGen()
			d.barrierDone = false
		}
	}
	rep.progress, rep.pending, rep.idle = store.StepBurst(now, env.burst)
	if rep.holder && !d.barrierDone {
		// The catch-up barrier: once a proposal armed after the
		// acquisition wins its ballot, this replica provably holds (and
		// has applied) every command any earlier authority committed, and
		// the lease becomes readable. Any write traffic fences for free;
		// an idle store drives one no-op barrier slot through the log.
		if store.FencedSince(d.acqGen) {
			env.lease.MarkReadable(epoch, d.idx)
			d.barrierDone = true
		} else if rep.pending == 0 && store.PendingLen() == 0 {
			if store.SubmitBarrier() != nil {
				d.barrierDone = true // barrier-less log: lease stays unreadable
			}
			rep.barrier = true
		}
	}
	if rep.progress > 0 && env.progressed != nil {
		env.progressed(d.idx, !agreed || rep.leading)
	}
	return rep
}

// leaderWatcher is the leadership watcher both engines poll at their
// fallback cadence: when the agreed leader changes, the queues stranded
// on the other replicas are dropped and every replica is woken — the new
// leader may hold a queue a previous reign left behind, and parked
// followers may sit on unlearned slots the dead leader decided (nothing
// else would re-step them until the next write). Without the drop, a
// demoted-but-live leader would re-propose its stale queue whenever it
// regains leadership, committing old writes after newer ones; with it, a
// stale command can only still commit via ballot adoption in the first
// undecided slot — i.e. never after a newer command.
type leaderWatcher struct {
	env  *kvEnv
	last int // the last agreed leader acted on, -1 before the first
	// changes counts agreed-leader changes after the first settlement
	// (the campaign's leader-churn metric).
	changes int
}

// observe runs one watcher round.
func (w *leaderWatcher) observe() {
	l, ok := w.env.leader()
	if !ok || l == w.last {
		return
	}
	for i, st := range w.env.stores {
		if i != l {
			st.DropPending()
		}
	}
	if w.last != -1 {
		w.changes++
	}
	w.last = l
	for i := range w.env.stores {
		w.env.wake(i)
	}
}
