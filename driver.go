package omegasm

import (
	"sync/atomic"

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
	// estimate returns process p's published Omega output: what its own
	// oracle names, and what leader's agreement is taken over.
	estimate func(p int) int
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
	// elected, when set, is the election runtime's change report: called
	// after every change of a published estimate and after every crash,
	// so after every move of the target and of agreement. Live: run the
	// watcher, wake the replicas and signal blocked callers at once, not
	// at the next tick. The simulator leaves it nil, for the reason it
	// leaves progressed nil; its watcher and its machines poll.
	elected func()
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
	// leaseOn is when lease authority was switched on (enableLease), 0
	// while it is off. Before the switch no grant exists and the arming
	// gate is the target; after it the gate is the lease. Atomic: the live
	// store switches from a caller's goroutine.
	leaseOn atomic.Int64
	// ackAtSubmit makes the write tracker acknowledge a write when it is
	// queued instead of when its commit is seen (MutDropQuorumAck).
	ackAtSubmit bool
}

// enableLease switches lease authority on at now, once; later calls do
// nothing, and a store without a lease register has nothing to switch.
// Both engines call it at the store's first lease read (live: the first
// Read with ReadLease; simulator: the leased run's first monitor read).
// A store nobody reads under the lease never takes a grant, so its writes
// wait for no lease: Disk-Paxos ballots alone keep them safe, and the
// lease is a read optimisation. The switch ends target-gated authority
// the way an expiring grant ends a holder's: the first Acquire waits
// until now + acquireEps has passed (see step, and internal/lease).
func (e *kvEnv) enableLease(now vclock.Time) {
	if e.lease != nil && e.leaseOn.Load() == 0 {
		// 0 means off, so a switch at time 0 is stored a tick late.
		e.leaseOn.CompareAndSwap(0, max(now, 1))
	}
}

// target returns the replica writes go to (-1: none) and whether it is
// the agreed leader: the agreed live leader if there is one, otherwise —
// while lease authority is off — the lowest-id live process whose own
// Omega output names itself. It reads published estimates only, never
// commit positions. After a leader crash each survivor names itself
// before they converge, so the first one to do so is the target, and its
// own oracle lets it arm: writes resume then, not at unanimity. While the
// estimates move two replicas may arm at once; Disk-Paxos ballots keep
// every slot consistent. Under lease authority only the agreed leader may
// claim and arm, so a lease-reading store has no target during anarchy:
// its writes wait for agreement, as its lease does.
func (e *kvEnv) target() (p int, agreed bool) {
	if l, ok := e.leader(); ok {
		return l, true
	}
	if e.leaseOn.Load() == 0 {
		for p := range e.stores {
			if e.alive(p) && e.estimate(p) == p {
				return p, false
			}
		}
	}
	return -1, false
}

// newStore builds process i's store over log, its proposer gated on the
// environment's commit authority, checked at every arming: being the
// target while lease authority is off, holding the lease once it is on.
// No replica arms a proposal without holding a lease that is on, which
// is what makes a valid lease exclusive commit authority (see
// internal/lease).
func newStore(log *consensus.Log, i int, oracle func() int, env *kvEnv) (*consensus.KV, error) {
	replica, err := consensus.NewReplica(log, i, oracle)
	if err != nil {
		return nil, err
	}
	store, err := consensus.NewKV(replica)
	if err == nil {
		store.SetAuthority(func(t vclock.Time) bool {
			if env.leaseOn.Load() != 0 {
				_, held := env.lease.Held(i, t)
				return held
			}
			p, _ := env.target()
			return p == i
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
	// target: this replica is the write target. leading: it is also the
	// agreed leader, the one that keeps or claims the lease once lease
	// authority is on. holder: it holds a valid lease. barrier: it just
	// queued a no-op catch-up barrier.
	target, leading, holder, barrier bool
}

// step runs one activation of replica idx at now: shed the queue under
// another target, keep the lease, step the store, fence a fresh grant,
// report progress.
func (d *replicaDriver) step(now vclock.Time) stepReport {
	env, store := d.env, d.env.stores[d.idx]
	target, agreed := env.target()
	// A replica that sees another replica as the target sheds its own
	// queue before stepping. The watcher does the same when it sees the
	// target move, but a replica can take many bursts between watcher
	// rounds, so the stale-queue window ("a former target re-proposes old
	// writes after newer ones when it is the target again") must be closed
	// at the replica itself: by the first step it takes under another
	// target, the stale queue is gone. (Writers that still care resubmit.)
	if target >= 0 && target != d.idx {
		store.DropPending()
	}
	rep := stepReport{target: target == d.idx, leading: agreed && target == d.idx}
	// Lease housekeeping once lease authority is on, before the burst so
	// a fresh acquisition is already the arming authority for it: the
	// agreed leader extends its grant while it holds, or (re)claims one
	// the moment the previous grant has expired — the first one only once
	// the switch is more than eps past, since until the switch replicas
	// armed under target authority. A demoted or crashed holder simply
	// stops extending and its grant lapses.
	var epoch uint64
	if on := env.leaseOn.Load(); on != 0 && rep.leading {
		if e, held := env.lease.Held(d.idx, now); held {
			rep.holder, epoch = true, e
			env.lease.Extend(d.idx, now, env.leaseDur)
		} else if now > on+env.acquireEps {
			if e, ok := env.lease.Acquire(d.idx, now, env.leaseDur, env.acquireEps); ok {
				rep.holder, epoch = true, e
				d.acqGen = store.FenceGen()
				d.barrierDone = false
			}
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
// fallback cadence (and the live store also runs on every election
// report): when the target moves, the queues stranded on the other
// replicas are dropped and every replica is woken — the new target may
// hold a queue an earlier reign left behind, and parked followers may sit
// on unlearned slots the old target decided (nothing else would re-step
// them until the next write). Without the drop, a former target that is
// still alive would re-propose its stale queue whenever it is the target
// again, committing old writes after newer ones; with it, a stale command
// can only still commit via ballot adoption in the first undecided slot —
// i.e. never after a newer command.
type leaderWatcher struct {
	env *kvEnv
	// last is the last target acted on, leader the last agreed leader
	// seen; -1 before the first.
	last, leader int
	// changes counts agreed-leader changes after the first settlement
	// (the campaign's leader-churn metric).
	changes int
}

func newLeaderWatcher(env *kvEnv) leaderWatcher {
	return leaderWatcher{env: env, last: -1, leader: -1}
}

// observe runs one watcher round.
func (w *leaderWatcher) observe() {
	t, agreed := w.env.target()
	if agreed && t != w.leader {
		if w.leader != -1 {
			w.changes++
		}
		w.leader = t
	}
	if t < 0 || t == w.last {
		return
	}
	for i, st := range w.env.stores {
		if i != t {
			st.DropPending()
		}
	}
	w.last = t
	for i := range w.env.stores {
		w.env.wake(i)
	}
}
