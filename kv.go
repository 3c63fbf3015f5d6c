package omegasm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"omegasm/internal/consensus"
	"omegasm/internal/engine"
	"omegasm/internal/lease"
	"omegasm/internal/vclock"
)

// ErrLogFull is returned when a replicated log that cannot checkpoint has
// decided every slot; the store keeps serving reads but accepts no
// further writes. Logs checkpoint and recycle their slots on clusters of
// up to 16 processes, so only a larger cluster's store (descriptors name
// at most 16 processes) can return it.
var ErrLogFull = errors.New("omegasm: replicated log is full")

// ErrClosed is returned by Put, PutAll and the linearizable Read modes
// when the store has been closed — before the call or while it was
// blocked: the engine that would finish the call is gone. A write in
// flight when Close lands may or may not have committed.
var ErrClosed = errors.New("omegasm: closed")

// ErrReadUnsupported is returned by Read in the linearizable modes
// (ReadLease, ReadQuorum) on a store whose log reserves no descriptor
// row: both modes fence through no-op barrier slots, which only batched
// or checkpointing logs can carry. Stores checkpoint on clusters of up to
// 16 processes and support every mode; only a larger cluster's store
// without KVBatch hits this.
var ErrReadUnsupported = errors.New("omegasm: linearizable reads need batching or checkpointing enabled")

// ReadMode selects the consistency/latency point of a KV.Read.
type ReadMode int

const (
	// ReadFreshest answers from the freshest readable replica's applied
	// state without any coordination: sequential consistency (a committed
	// prefix, possibly stale), the same guarantee as Get. Never blocks.
	ReadFreshest ReadMode = iota
	// ReadLease answers linearizably from the lease holder's applied
	// state when a valid, barrier-complete lease exists — one clock check
	// and one atomic load, no consensus round. No grant exists before a
	// store's first ReadLease: that call switches lease authority on for
	// good (from then on every write waits for a lease, and a failover
	// for the dead holder's grant to run out) and itself falls back, as
	// every ReadLease does during anarchy, after lease expiry, or with
	// leases disabled, to a ReadQuorum round rather than give up
	// linearizability.
	ReadLease
	// ReadQuorum answers linearizably by fencing through the log: it
	// waits for the leader to win a consensus slot armed after the read
	// began (committing a no-op barrier if the store is idle) and then
	// reads that replica. Always a full consensus round-trip.
	ReadQuorum
)

// KVOption configures NewKV.
type KVOption func(*kvSettings) error

// ckptAuto is the sentinel for "checkpoint cadence not chosen": NewKV
// derives it from the slot count.
const ckptAuto = -1

// leaseAuto is the sentinel for "lease duration not chosen": NewKV
// enables leases with the cluster's default duration (defaultLeaseDur)
// whenever the log can carry the catch-up barrier.
const leaseAuto = time.Duration(-1)

// defaultLeaseDur derives the auto-enabled lease duration from the
// cluster's own pacing — the timer unit is the one value a cluster scales
// with its medium — between two bounds, and the substrate decides which
// one binds. Auto-enabled means the register exists: no grant is taken
// before the store's first ReadLease, and everything below about what a
// successor waits for applies only to a store that reads under the lease.
// One that never does resumes writes from the first survivor that names
// itself (see kvEnv.target).
//
// From below: a lease must outlive the longest gap between two
// activations of its holder, or the grant lapses under a leader that
// never stopped leading — and every lapse blocks writes for acquireEps,
// costs a re-acquisition under a new epoch plus a catch-up barrier slot,
// and keeps lease reads dark. On atomic registers that gap is the
// holder's refresh cadence (a quarter of the lease); on a substrate whose
// register accesses block in I/O it is a whole consensus round, which the
// holder runs inside one activation.
//
// From above: after a leader crash the successor waits out the dead
// leader's grant plus acquireEps, but it cannot commit before the
// survivors have detected the crash and re-agreed either — about four
// timer units on both substrates (8ms on atomic defaults, 103ms on the
// SAN at 200us disks). A lease that has run out by then costs a
// lease-reading store's client nothing; a longer one is its outage.
//
// On atomic registers the upper bound binds and three timer units (6ms)
// is what BenchmarkFailoverLeaseSweep picked: with the 2.5ms eps the
// successor's wait ends 8.3-8.5ms after the crash against 8.0-8.3ms with
// leases off, where four units read 9.4-10.5ms and ten 20.3ms, and
// TestLeaseDoesNotLapseUnderHealthyLeader holds the lower
// bound at that length. On the SAN the lower bound binds: at five units a
// grant lapsed in every episode of the sweep, so it keeps ten (250ms) and
// there the lease is still what a lease-reading store's client waits for
// (297ms against 103ms).
func defaultLeaseDur(c *Cluster) time.Duration {
	if c.DiskCount() > 0 {
		return 10 * c.set.timerUnit
	}
	return 3 * c.set.timerUnit
}

// acquireEps is how long past a grant's observed expiry a successor waits
// before it claims: the bounded delay between a holder's clock read and
// the effect of its extension, the one assumption lease-read safety rests
// on (see internal/lease). The first grant waits the same eps past the
// first ReadLease, which switched lease authority on; before that no
// grant exists and nobody waits for one. It guards against a stalled
// goroutine, whose length follows the host and the medium, not the grant
// — so it is a share of the timer unit, five quarters: 2.5ms on atomic
// registers and 31.25ms on the SAN, and a shorter kvLease does not
// shrink it.
func acquireEps(c *Cluster) time.Duration {
	return c.set.timerUnit + c.set.timerUnit/4
}

type kvSettings struct {
	slots    int
	interval time.Duration
	batch    int
	ckpt     int
	lease    time.Duration
}

// KVSlots sets the replicated log's slot capacity (default 1024). Each
// slot pre-allocates one consensus instance (3 registers per process) on
// the cluster's substrate. With checkpointing on (the default) the slots
// form a recycling window and bound only the in-flight portion of the
// write stream; on a log that cannot checkpoint (see ErrLogFull) they are
// the store's total write capacity.
func KVSlots(n int) KVOption {
	return func(s *kvSettings) error {
		if n < 1 {
			return fmt.Errorf("omegasm: need at least 1 log slot, got %d", n)
		}
		s.slots = n
		return nil
	}
}

// kvCheckpointEvery sets how many decided slots separate the leader's
// checkpoint proposals (default: a quarter of the slot count; a
// ShardedKV passes its shards' cadence through it). Every checkpoint
// seals the log prefix into a snapshot of the store's state, published
// to immutable per-epoch register areas on the cluster's substrate; once
// a quorum of replicas has durably acknowledged passing it, the sealed
// slots are recycled and reused for new proposals — so the write stream
// is unbounded and Put/PutAll never return ErrLogFull. A replica that
// falls behind the recycled window (a restarted or long-parked laggard)
// installs the latest snapshot instead of replaying.
//
// kvCheckpointEvery(0) disables checkpointing: the log is a fixed array
// that fills permanently after KVSlots writes, and ErrLogFull returns.
// The price of checkpointing is the reserved key row 0xFFFF (checkpoint
// descriptors claim the top row of the command space, as batch
// descriptors do) and a cap of 16 processes; clusters above 16 processes
// fall back to checkpointing off unless a cadence is set explicitly. n
// must be below the slot count, so the checkpoint command itself always
// fits the window.
func kvCheckpointEvery(n int) KVOption {
	return func(s *kvSettings) error {
		if n < 0 {
			return fmt.Errorf("omegasm: checkpoint interval must not be negative, got %d", n)
		}
		s.ckpt = n
		return nil
	}
}

// kvStepInterval sets the store's fallback poll cadence (default: the
// cluster's step interval) apart from the election's pacing: the tests
// slow it down to prove writes wake the replicas, or speed it up.
func kvStepInterval(d time.Duration) KVOption {
	return func(s *kvSettings) error {
		if d <= 0 {
			return fmt.Errorf("omegasm: KV step interval must be positive, got %v", d)
		}
		s.interval = d
		return nil
	}
}

// KVBatch sets how many queued writes one consensus slot may commit
// (default 1: batching off). With n > 1 the leader packs up to n pending
// commands into a single batch publication and runs one Disk-Paxos round
// on a 32-bit descriptor naming it, amortizing the consensus round — and
// its quorum I/O on the SAN — across the whole batch. The price is one
// reserved key: a batched log claims the key 0xFFFF row of the command
// space for descriptors, so Put rejects key 0xFFFF entirely (an
// unbatched store only rejects the (0xFFFF, 0xFFFF) pair). Batching also
// caps the cluster at 16 processes (descriptor pids are four bits).
func KVBatch(n int) KVOption {
	return func(s *kvSettings) error {
		if n < 1 {
			return fmt.Errorf("omegasm: KV batch size must be at least 1, got %d", n)
		}
		s.batch = n
		return nil
	}
}

// kvLease sets the leader-lease duration behind ReadLease's local
// linearizable reads (default: three timer units, 6ms, on atomic
// registers and ten, 250ms, on the SAN — see defaultLeaseDur — whenever
// the log reserves the descriptor row — batching or checkpointing on —
// which default options do). The tests and the lease sweep set it. No
// grant exists before the store's first ReadLease. From then on the
// agreed leader claims the lease, commits one no-op barrier slot to prove
// its state covers every prior authority's commits, and then serves
// linearizable reads from its own applied state until the lease expires;
// it extends the lease while it leads. Every replica's proposer is gated
// on holding the lease, so commits never straddle two leases — the price
// is that after a leader crash the successor waits out the remainder of
// the dead leader's lease, plus a margin of five quarters of a timer unit
// for the dead leader's last extension to land, before it can commit.
// Until that first ReadLease, and always under kvLease(0), proposers are
// gated only on being the write target (see kvEnv.target); kvLease(0)
// also makes ReadLease degrade to quorum rounds.
//
// Choose d between two bounds. It must outlive the longest gap between
// two activations of the holder: the holder extends its grant once per
// activation, so a shorter lease lapses under a healthy leader, which
// then re-acquires under a new epoch and pays the barrier slot again. On
// atomic registers the gap is the idle refresh cadence (d/4); on the SAN,
// where a step blocks in quorum I/O, it is one consensus round (tens of
// milliseconds at commodity disk latencies). And on a lease-reading
// store a successor cannot commit before the survivors re-agree anyway,
// about four timer units after the crash: a lease that has run out by
// then is free, a longer one is what its clients wait for. The atomic
// default sits under that bound; the SAN default cannot (five timer units
// already lapse there), and kvLease(d) means exactly d on either.
func kvLease(d time.Duration) KVOption {
	return func(s *kvSettings) error {
		if d < 0 {
			return fmt.Errorf("omegasm: lease duration must not be negative, got %v", d)
		}
		s.lease = d
		return nil
	}
}

// Entry is one key/value write of a PutAll or MultiPut call.
type Entry struct {
	// Key and Val form the command. Key 0xFFFF is reserved on batched
	// stores; the pair (0xFFFF, 0xFFFF) is reserved everywhere.
	Key, Val uint16
}

// KV is a replicated key-value store served by the cluster: the full
// Paxos-style stack the paper motivates, from the Omega oracle at the
// bottom through an Omega-driven Disk-Paxos replicated log to a
// converging store at the top — over whichever substrate the cluster was
// built on (atomic registers or the SAN).
//
// Writes route to the replica the oracle names leader and are committed
// by consensus, so a committed write survives any minority of process
// crashes (and, on the SAN, any minority of disk crashes) — including
// across log recycling: a checkpoint's snapshot is durably published on
// the substrate before the slots it seals can be reused, so every
// committed write is always reconstructible from either a live slot or
// the newest snapshot. After a leader crash the store resumes as soon as
// the first survivor names itself leader, before the survivors agree —
// unless it has been read under the lease (see ReadLease), in which case
// it resumes once they agree and the dead leader's grant has run out.
// Reads are served from the local applied state — sequential
// consistency, not linearizability.
//
// The log checkpoints: the leader periodically seals the committed
// prefix into a published snapshot, a quorum acknowledges it, and the
// sealed slots recycle — so the write stream is unbounded and KVSlots
// bounds only the in-flight window.
//
// Replication is wake-driven: each replica is an engine machine that
// parks when idle, is woken the moment a write is enqueued for it (Put
// notifies the leader's machine), and keeps stepping back-to-back
// while work is draining, so commit latency is CPU-bound instead of
// poll-interval-bound and an idle store costs no stepping at all. The
// cluster's step interval remains as the fallback poll for the cases no
// notification covers (a demoted replica waiting to drop or re-propose
// its queue).
type KV struct {
	c        *Cluster
	interval time.Duration
	// kvEnv carries the replicas' stores and the lease (nil: leases off;
	// leaseDur/acquireEps are engine nanoseconds, see kvLease) — the
	// environment the shared driver, watcher and write tracker run in.
	kvEnv

	// engs are the schedulers, sharing one clock epoch: lease words hold
	// engine nanoseconds, and every party judges them against that clock.
	// engs[0] runs the leadership watcher and is the one whose Done reports
	// the store closed. On a substrate whose register accesses are memory
	// operations it also runs every replica, so a commit wave is a few
	// back-to-back steps of one goroutine; where accesses block in I/O
	// each replica has a scheduler of its own, as each election process
	// does in internal/rt: a follower's learning reads, or a slow quorum,
	// must not sit between the leader's steps.
	engs []*engine.Live
	// at[i] is replica i's driver machine: its scheduler and its id there.
	at      []machineRef
	commits *broadcast
}

// machineRef names one machine of one live engine.
type machineRef struct {
	eng *engine.Live
	id  int
}

// broadcast is a reusable close-channel broadcast: waiters grab the
// current channel and commit signals close it, waking every waiter at
// once (the shape of Put's commit watch). A signal with no waiter since
// the last reset is free: a commit wave nobody is waiting on allocates
// no channel.
type broadcast struct {
	mu     sync.Mutex
	ch     chan struct{}
	waited bool
}

func newBroadcast() *broadcast { return &broadcast{ch: make(chan struct{})} }

func (b *broadcast) wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waited = true
	return b.ch
}

func (b *broadcast) signal() {
	b.mu.Lock()
	if b.waited {
		close(b.ch)
		b.ch = make(chan struct{})
		b.waited = false
	}
	b.mu.Unlock()
}

// kvMachine adapts the shared replica driver to the live engine's
// wake-hint contract.
type kvMachine struct {
	kv *KV
	replicaDriver
}

// Step implements engine.Machine. The hint encodes the replica's state:
// draining work wants the CPU back immediately, a replica with a queued
// command that may not arm it polls at the fallback cadence (it may
// become the target, or the watcher may drop its queue), an idle leader
// sets one timer — to its grant's next refresh, or to the first instant
// it may claim one — and an idle caught-up replica parks until a write, a
// commit notification or an election report arrives. Progress counts as
// draining only when the burst did not end idle: a follower learning a
// backlog and a successor catching up keep the CPU, while a replica that
// committed and then found the next slot undecided with nothing to
// propose — or a leader whose own ballot just won the slot, with nothing
// left queued — falls to the rules after it, so the next write does not
// queue behind a poll.
func (m *kvMachine) Step(now vclock.Time) engine.Hint {
	kv := m.kv
	if !kv.alive(m.idx) {
		return engine.Park()
	}
	rep := m.step(now)
	leaseOn := kv.leaseOn.Load()
	switch {
	case rep.barrier || (rep.progress > 0 && !rep.idle):
		return engine.Now()
	case rep.pending > 0:
		// The target drains queued work at CPU speed, unless the log can
		// make no progress: permanently full (checkpointing off), or the
		// recycling window is exhausted until a checkpoint gathers its ack
		// quorum, in which case stepping would only spin. The fallback
		// cadence re-checks the acks (the stepped replica reads them and
		// slides the window itself).
		if store := kv.stores[m.idx]; rep.target && !store.LogFull() && !store.WindowFull() {
			return engine.Now()
		}
		return engine.At(now + int64(kv.interval))
	case rep.holder:
		// An idle leaseholder must not park: its grant needs extending
		// well before expiry or lease reads go dark between writes. A
		// quarter of the grant leaves three refreshes to miss.
		return engine.At(now + kv.leaseDur/4)
	case leaseOn != 0:
		g, _ := kv.lease.Peek()
		// An agreed leader still waiting out a predecessor's grant — or,
		// for the first grant, the switch — sleeps to the first instant
		// Acquire can succeed: strictly past the observed expiry plus eps.
		// Each wake re-reads the expiry, so a late extension by the
		// predecessor only moves the timer. When that instant has already
		// passed (a claim lost a race), the fallback cadence retries.
		if at := max(g.Expiry, leaseOn) + kv.acquireEps + 1; rep.leading && at > now {
			return engine.At(at)
		}
		// A replica whose own oracle names it polls too while the processes
		// do not agree on it: under lease authority it may neither arm nor
		// claim before they do, and it is the likeliest next leader — or
		// the holder whose refresh a moment of disagreement interrupted.
		if rep.leading || kv.estimate(m.idx) == m.idx {
			return engine.At(now + int64(kv.interval))
		}
	}
	return engine.Park() // idle: until notified
}

// checkLogShape rejects the log configurations a store of either engine
// (layer names it in the error) cannot run: descriptor pids are four
// bits, so batching and checkpointing cap the process count, and the
// checkpoint command itself must fit the window.
func checkLogShape(layer string, n, slots, batch, ckpt int) error {
	if n > consensus.MaxBatchProcs && batch > 1 {
		return fmt.Errorf("omegasm: %s batching supports at most %d processes, got %d", layer, consensus.MaxBatchProcs, n)
	}
	if n > consensus.MaxBatchProcs && ckpt > 0 {
		return fmt.Errorf("omegasm: %s checkpointing supports at most %d processes, got %d", layer, consensus.MaxBatchProcs, n)
	}
	if ckpt > 0 && ckpt >= slots {
		return fmt.Errorf("omegasm: %s checkpoint interval %d must be below the %d-slot window", layer, ckpt, slots)
	}
	return nil
}

// NewKV builds and starts the cluster's replicated key-value store: one
// replica per process over a freshly allocated log on the cluster's
// shared memory, each driven as a wake-hinted machine of a live engine
// (one engine for all of them on atomic registers, one each on the SAN).
// A cluster serves at most one KV in its lifetime (the log's register
// namespace is claimed permanently); a second call errors. Call Close to
// stop replication.
func NewKV(c *Cluster, opts ...KVOption) (*KV, error) {
	if c == nil {
		return nil, fmt.Errorf("omegasm: nil cluster")
	}
	set := &kvSettings{slots: 1024, interval: c.stepInterval(), batch: 1, ckpt: ckptAuto, lease: leaseAuto}
	// Each driver activation runs a burst of replica micro-steps: Paxos
	// phases are micro-steps, so one slot commit needs several. Where a
	// register access is quorum disk I/O, idle bursts are not free.
	blocking := c.DiskCount() > 0
	burst := 8
	if blocking {
		burst = 2
	}
	for _, o := range opts {
		if o == nil {
			return nil, fmt.Errorf("omegasm: nil KVOption")
		}
		if err := o(set); err != nil {
			return nil, err
		}
	}
	if set.ckpt == ckptAuto {
		// Default on: seal every quarter window. Configurations that cannot
		// checkpoint (a 1-slot log, more processes than descriptors can
		// name) silently keep the fixed-capacity log instead of erroring.
		set.ckpt = consensus.DefaultCheckpointEvery(set.slots, c.N())
	}
	if err := checkLogShape("KV", c.N(), set.slots, set.batch, set.ckpt); err != nil {
		return nil, err
	}
	if !c.kvTaken.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("omegasm: cluster already serves a KV store")
	}

	n := c.N()
	log, err := consensus.NewCheckpointLog(c.mem, n, set.slots, set.batch, set.ckpt)
	if err != nil {
		return nil, fmt.Errorf("omegasm: %w", err)
	}
	// Resolve the lease knob against the log's capabilities: the catch-up
	// barrier needs the descriptor row, so auto-mode enables leases
	// exactly when the row is reserved, and an explicit request without
	// it is a configuration error.
	leaseDur := set.lease
	if leaseDur == leaseAuto {
		leaseDur = 0
		if log.ReservesTopRow() {
			leaseDur = defaultLeaseDur(c)
		}
	} else if leaseDur > 0 && !log.ReservesTopRow() {
		return nil, fmt.Errorf("omegasm: a lease needs batching or checkpointing enabled")
	}
	kv := &KV{
		c:        c,
		interval: set.interval,
		commits:  newBroadcast(),
	}
	epoch := time.Now()
	newEngine := func() *engine.Live {
		eng := engine.NewLive(engine.LiveConfig{Epoch: epoch})
		kv.engs = append(kv.engs, eng)
		return eng
	}
	shared := newEngine()
	var watcherID int
	kv.kvEnv = kvEnv{
		stores: make([]*consensus.KV, n),
		leader: func() (int, bool) {
			l, ok := c.AgreedLeader()
			return l, ok && l >= 0 && !c.Crashed(l)
		},
		estimate: func(p int) int {
			l, _ := c.Leader(p)
			return l
		},
		alive: func(p int) bool { return !c.Crashed(p) },
		wake:  func(i int) { kv.at[i].eng.Notify(kv.at[i].id) },
		// Only the commit's origin wakes the other replicas to learn the new
		// decisions and then any call waiting for its command (or its
		// fence) to land. A follower that merely learned entries would
		// otherwise re-notify all peers per wave, turning one commit into
		// ~n² notifications of already-informed machines. Its signal would
		// be spurious too: the caller is confirmed from the origin's tail,
		// so by the time a follower's learn lands a serial writer already
		// waits for its next Put, and the signal would only wake it and
		// cost a fresh broadcast channel.
		progressed: func(from int, origin bool) {
			if !origin {
				return
			}
			for i := 0; i < n; i++ {
				if i != from {
					kv.wake(i)
				}
			}
			kv.commits.signal()
		},
		// Every move of the estimates may move the target: the watcher
		// drops the stranded queues, each replica re-steps (a parked holder
		// refreshes once agreement returns to it, a new target arms), and
		// blocked callers resubmit to the new target at once.
		elected: func() {
			shared.Notify(watcherID)
			for i := 0; i < n; i++ {
				kv.wake(i)
			}
			kv.commits.signal()
		},
		burst: burst,
	}
	if leaseDur > 0 {
		kv.lease = &lease.Register{}
		kv.leaseDur = int64(leaseDur)
		kv.acquireEps = int64(acquireEps(c))
	}
	for i := range kv.stores {
		if kv.stores[i], err = newStore(log, i, c.oracle(i), &kv.kvEnv); err != nil {
			return nil, fmt.Errorf("omegasm: kv replica %d: %w", i, err)
		}
		eng := shared
		if blocking {
			eng = newEngine()
		}
		kv.at = append(kv.at, machineRef{eng, eng.Add(&kvMachine{kv, replicaDriver{env: &kv.kvEnv, idx: i}})})
	}
	// The leadership watcher polls at the fallback cadence, and runs at
	// once on every election report.
	watcher := newLeaderWatcher(&kv.kvEnv)
	watcherID = shared.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint {
		watcher.observe()
		return engine.At(now + int64(kv.interval))
	}))
	for _, eng := range kv.engs {
		if err := eng.Start(); err != nil {
			kv.Close()
			return nil, err
		}
	}
	c.rt.OnChange(kv.elected)
	return kv, nil
}

// Close stops the replication engines and joins them. Reads keep
// answering from the frozen applied state; writes stop committing, and
// blocking calls (Put, PutAll, linearizable Read) — in flight or issued
// later — return ErrClosed. Idempotent.
func (kv *KV) Close() {
	kv.c.rt.OnChange(nil)
	for _, eng := range kv.engs {
		eng.Stop()
	}
}

// now reads the engine clock every lease word is granted and judged
// against.
func (kv *KV) now() vclock.Time { return kv.engs[0].Now() }

// readStore picks the replica to answer reads: the agreed leader's (it
// commits first, so it is the freshest), else the freshest live replica.
func (kv *KV) readStore() *consensus.KV {
	if l, ok := kv.leader(); ok {
		return kv.stores[l]
	}
	return kv.stores[max(kv.freshest(), 0)]
}

// Put replicates one write and returns once it is committed. It is
// PutAll with a single entry; see PutAll for the full retry and error
// semantics.
//
// Put is wake-driven end to end: the submit wakes the leader's parked
// replica machine immediately, the leader's burst ends at the commit its
// ballot won, and the call sleeps on the commit broadcast the leader
// signals rather than a poll loop. Confirmation reads each replica's
// applied tail under a lock no register access is made under, so it
// never waits out a follower's disk I/O: the latency of an uncontended
// write is the consensus round itself, not the driver cadence. The
// fallback ticker only paces the retry path (leadership moved, log
// pressure).
func (kv *KV) Put(ctx context.Context, key, val uint16) error {
	return kv.PutAll(ctx, Entry{Key: key, Val: val})
}

// PutAll replicates a group of writes and returns once every one of them
// is committed. All entries are submitted to the current leader at once,
// so on a batched store (KVBatch) they are packed into as few consensus
// slots as the batch size allows — the group-commit fast path that
// amortizes one Disk-Paxos round across the group. Entries are committed
// in submission order when the group lands in one reign; duplicate
// entries are deduplicated (a Set is idempotent).
//
// The call watches the log entries appended after it began (a watermark
// per replica, so an identical historical write never counts as this
// call's success) and resubmits the not-yet-committed remainder if
// leadership moves — or a leadership flap sweeps the leader's queue —
// before everything lands. Re-submission can commit an entry into more
// than one slot; the store applies sets idempotently, so duplicates only
// spend log capacity. PutAll returns ctx's error on cancellation,
// ErrClosed once the store is closed (before or during the call), the
// reserved-pair error synchronously (committing nothing), and — only when
// checkpointing is disabled — ErrLogFull if the fixed log fills before
// the whole group commits. With checkpointing (the default) the stream is
// unbounded: window backpressure paces the call, it never fails it.
func (kv *KV) PutAll(ctx context.Context, entries ...Entry) error {
	if len(entries) == 0 {
		return nil
	}
	claimed := kv.stores[0].ReservesTopRow()
	t := newWriteTracker(&kv.kvEnv, len(entries))
	for _, e := range entries {
		cmd := consensus.EncodeSet(e.Key, e.Val)
		if consensus.IsReserved(cmd, claimed) {
			return fmt.Errorf("omegasm: key/value pair (0x%04x, 0x%04x) is reserved", e.Key, e.Val)
		}
		if t.head(cmd) < 0 {
			t.add(cmd)
		}
	}
	return pollUntil(ctx, kv.engs[0].Done(), kv.commits, kv.interval, func() (bool, error) {
		now := kv.now()
		if t.confirm(now); t.outstanding == 0 {
			return true, nil
		}
		if kv.readStore().LogFull() {
			return false, ErrLogFull
		}
		// Wake the leader only for a fresh hand-over: a replica never
		// parks with queued work, and a wake of a busy one buys it an
		// extra step — a quorum round trip on the SAN.
		l, queued, err := t.submit(now)
		if queued {
			kv.wake(l)
		}
		return t.outstanding == 0, err
	})
}

// pollUntil runs attempt until it reports done or fails, sleeping between
// attempts on progress's broadcast rather than a poll loop; the fallback
// ticker only paces the retry path (leadership moved, log pressure, a
// signal racing the attempt). It returns ctx's error on cancellation and
// ErrClosed once closed is — the engine has been stopped and nothing is
// left to finish the call.
func pollUntil(ctx context.Context, closed <-chan struct{}, progress *broadcast, interval time.Duration, attempt func() (done bool, err error)) error {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		// Grab the broadcast channel before the attempt: progress that
		// lands after it closes this channel, so the wait below cannot
		// miss it.
		signalled := progress.wait()
		if done, err := attempt(); done || err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-closed:
			return ErrClosed
		case <-signalled:
		case <-ticker.C:
		}
	}
}

// Get returns the value of key in the applied state of the freshest
// readable replica (the leader's when one is agreed). Reads are
// sequentially consistent: they reflect a committed prefix, possibly a
// slightly stale one. For linearizable reads use Read with ReadLease or
// ReadQuorum.
func (kv *KV) Get(key uint16) (uint16, bool) {
	return kv.readStore().Get(key)
}

// Read returns the value of key under the chosen consistency mode; see
// ReadMode for the modes' guarantees and costs. ReadFreshest never
// blocks or errors (ctx is unused). ReadLease answers in two atomic
// loads while a readable lease is valid and falls back to a quorum
// round otherwise; ReadQuorum always fences through the log. The
// blocking modes return ctx's error on cancellation, ErrClosed on a
// closed store and ErrReadUnsupported on stores without a descriptor row.
func (kv *KV) Read(ctx context.Context, key uint16, mode ReadMode) (uint16, bool, error) {
	switch mode {
	case ReadFreshest:
		v, ok := kv.readStore().Get(key)
		return v, ok, nil
	case ReadLease:
		if kv.lease != nil {
			now := kv.now()
			kv.enableLease(now)
			if h, _, ok := kv.lease.ReadableHolder(now); ok {
				// The linearization point is the validity check itself: at
				// that instant the holder's applied state contains every
				// committed write (barrier + exclusive authority), and the
				// holder's state is monotone, so the value read just after
				// is at least as fresh. The holder may have crashed — its
				// frozen state is still complete, because nobody else can
				// commit while its grant is valid.
				v, ok := kv.stores[h].Get(key)
				return v, ok, nil
			}
		}
		// Anarchy, expiry, or leases off: preserve linearizability the
		// slow way rather than silently weaken the read.
		return kv.readQuorum(ctx, key)
	case ReadQuorum:
		return kv.readQuorum(ctx, key)
	}
	return 0, false, fmt.Errorf("omegasm: unknown read mode %d", mode)
}

// readQuorum is the linearizable slow path: wait until the agreed leader
// wins a consensus slot whose proposal was armed after this call began —
// proof it has learned and applied every write committed before the call
// — then answer from its state. Write traffic fences for free; on an
// idle store the call drives a no-op barrier slot through the log. A
// leadership change mid-call restarts the fence against the new leader.
func (kv *KV) readQuorum(ctx context.Context, key uint16) (val uint16, found bool, err error) {
	if !kv.stores[0].ReservesTopRow() {
		return 0, false, ErrReadUnsupported
	}
	fencedFrom := -1 // leader the fence generation below was taken from
	var gen uint64
	err = pollUntil(ctx, kv.engs[0].Done(), kv.commits, kv.interval, func() (bool, error) {
		l, ok := kv.leader()
		if !ok {
			return false, nil
		}
		store := kv.stores[l]
		if l != fencedFrom {
			fencedFrom, gen = l, store.FenceGen()
		}
		if store.FencedSince(gen) {
			val, found = store.Get(key)
			return true, nil
		}
		if store.PendingLen() == 0 {
			if err := store.SubmitBarrier(); err != nil {
				return false, err
			}
		}
		kv.wake(l)
		return false, nil
	})
	return val, found, err
}

// LeaseHolder returns the replica currently entitled to serve lease
// reads — the holder of a valid, barrier-complete grant — or ok=false
// when there is none (anarchy, expiry, barrier still in flight, leases
// disabled, or no ReadLease yet: a store takes its first grant only
// after its first lease read). ReadLease serves locally exactly when ok.
func (kv *KV) LeaseHolder() (holder int, ok bool) {
	if kv.lease == nil {
		return -1, false
	}
	h, _, ok := kv.lease.ReadableHolder(kv.now())
	return h, ok
}

// Len returns the number of keys in the applied state.
func (kv *KV) Len() int { return kv.readStore().Len() }

// Applied returns how many log entries the reading replica has applied.
func (kv *KV) Applied() int { return kv.readStore().Applied() }

// Snapshot returns a copy of the applied state.
func (kv *KV) Snapshot() map[uint16]uint16 { return kv.readStore().Snapshot() }

// SlotsUsed returns how many consensus slots the reading replica has
// passed; on a checkpointing store it grows past KVSlots as slots
// recycle. On a batched store this lags Applied by the batching factor —
// the ratio Applied()/SlotsUsed() is the measured average batch size.
func (kv *KV) SlotsUsed() int { return kv.readStore().SlotsDecided() }

// Checkpoints returns how many checkpoints the reading replica has
// passed — the number of times a log prefix was sealed into a snapshot
// and its slots recycled.
func (kv *KV) Checkpoints() int { return kv.readStore().Checkpoints() }
