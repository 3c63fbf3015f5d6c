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

// ErrLogFull is returned when a replicated log with checkpointing
// disabled (KVCheckpointEvery(0)) has decided every slot; the store keeps
// serving reads but accepts no further writes. Under default options the
// log checkpoints and recycles slots, so writes never return ErrLogFull.
var ErrLogFull = errors.New("omegasm: replicated log is full")

// ErrClosed is returned by Put, PutAll and the linearizable Read modes
// when the store has been closed, and by Propose when the cluster has
// been stopped — before the call or while it was blocked: the engine that
// would finish the call is gone. A write in flight when Close lands may
// or may not have committed.
var ErrClosed = errors.New("omegasm: closed")

// ErrReadUnsupported is returned by Read in the linearizable modes
// (ReadLease, ReadQuorum) on a store whose log reserves no descriptor
// row: both modes fence through no-op barrier slots, which only batched
// or checkpointing logs can carry. Default-options stores checkpoint and
// support every mode; only KVCheckpointEvery(0) combined with KVBatch(1)
// hits this.
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
	// and one atomic load, no consensus round. During anarchy, after
	// lease expiry, or with leases disabled it falls back to a ReadQuorum
	// round rather than give up linearizability.
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
// one binds.
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
// SAN at 200us disks). A lease that has run out by then costs a client
// nothing; a longer one is the outage.
//
// On atomic registers the upper bound binds and three timer units (6ms)
// is what BenchmarkFailoverLeaseSweep picked: with the 2.5ms eps the
// successor's wait ends 8.3-8.5ms after the crash against 8.0-8.3ms with
// leases off, where four units read 9.4-10.5ms and ten 20.3ms, and
// TestLeaseDoesNotLapseUnderHealthyLeader holds the lower
// bound at that length. On the SAN the lower bound binds: at five units a
// grant lapsed in every episode of the sweep, so it keeps ten (250ms) and
// there the lease is still what a client waits for (297ms against 103ms).
func defaultLeaseDur(c *Cluster) time.Duration {
	if c.DiskCount() > 0 {
		return 10 * c.set.timerUnit
	}
	return 3 * c.set.timerUnit
}

// acquireEps is how long past a grant's observed expiry a successor waits
// before it claims: the bounded delay between a holder's clock read and
// the effect of its extension, the one assumption lease-read safety rests
// on (see internal/lease). It guards against a stalled goroutine, whose
// length follows the host and the medium, not the grant — so it is a
// share of the timer unit, five quarters: 2.5ms on atomic registers and
// 31.25ms on the SAN, and a shorter KVLease does not shrink it.
func acquireEps(c *Cluster) time.Duration {
	return c.set.timerUnit + c.set.timerUnit/4
}

type kvSettings struct {
	slots    int
	interval time.Duration
	burst    int
	batch    int
	ckpt     int
	lease    time.Duration
}

// KVSlots sets the replicated log's slot capacity (default 1024). Each
// slot pre-allocates one consensus instance (3 registers per process) on
// the cluster's substrate. With checkpointing on (the default) the slots
// form a recycling window and bound only the in-flight portion of the
// write stream; with KVCheckpointEvery(0) they are the store's total
// write capacity.
func KVSlots(n int) KVOption {
	return func(s *kvSettings) error {
		if n < 1 {
			return fmt.Errorf("omegasm: need at least 1 log slot, got %d", n)
		}
		s.slots = n
		return nil
	}
}

// KVCheckpointEvery sets how many decided slots separate the leader's
// checkpoint proposals (default: a quarter of the slot count). Every
// checkpoint seals the log prefix into a snapshot of the store's state,
// published to immutable per-epoch register areas on the cluster's
// substrate; once a quorum of replicas has durably acknowledged passing
// it, the sealed slots are recycled and reused for new proposals — so
// the write stream is unbounded and Put/PutAll never return ErrLogFull.
// A replica that falls behind the recycled window (a restarted or long-
// parked laggard) installs the latest snapshot instead of replaying.
//
// KVCheckpointEvery(0) disables checkpointing: the log is a fixed array
// that fills permanently after KVSlots writes, exactly the pre-recycling
// behavior, and ErrLogFull returns. The price of checkpointing is the
// reserved key row 0xFFFF (checkpoint descriptors claim the top row of
// the command space, as batch descriptors do) and a cap of 16 processes;
// clusters above 16 processes fall back to checkpointing off unless a
// cadence is set explicitly. n must be below the slot count, so the
// checkpoint command itself always fits the window.
func KVCheckpointEvery(n int) KVOption {
	return func(s *kvSettings) error {
		if n < 0 {
			return fmt.Errorf("omegasm: checkpoint interval must not be negative, got %d", n)
		}
		s.ckpt = n
		return nil
	}
}

// KVStepInterval sets the cadence of the store's replication driver
// (default: the cluster's step interval). Each tick advances every live
// replica by a burst of micro-steps.
func KVStepInterval(d time.Duration) KVOption {
	return func(s *kvSettings) error {
		if d <= 0 {
			return fmt.Errorf("omegasm: KV step interval must be positive, got %v", d)
		}
		s.interval = d
		return nil
	}
}

// KVStepBurst sets how many replica micro-steps each driver tick runs
// (default: 8 on the atomic substrate, 2 on the SAN). Paxos phases are
// micro-steps, so one slot commit needs several; the burst decouples
// commit rate from the host's timer resolution. On the SAN every step
// costs real quorum I/O, so keep the burst small there.
func KVStepBurst(n int) KVOption {
	return func(s *kvSettings) error {
		if n < 1 {
			return fmt.Errorf("omegasm: KV step burst must be at least 1, got %d", n)
		}
		s.burst = n
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

// KVLease sets the leader-lease duration behind ReadLease's local
// linearizable reads (default: three timer units, 6ms, on atomic
// registers and ten, 250ms, on the SAN — see below — whenever the log
// reserves the descriptor row — batching or checkpointing on — which
// default options do). The agreed leader claims the lease, commits one
// no-op barrier slot to prove its state covers every prior authority's
// commits, and then serves linearizable reads from its own applied state
// until the lease expires; it extends the lease while it leads. Every
// replica's proposer is gated on holding the lease, so commits never
// straddle two leases — the price is that after a leader crash the
// successor waits out the remainder of the dead leader's lease, plus a
// margin of five quarters of a timer unit for the dead leader's last
// extension to land, before it can commit. KVLease(0) disables leases:
// ReadLease then degrades to quorum rounds, and proposers are gated only
// by the Omega oracle, the pre-lease behavior.
//
// Choose d between two bounds. It must outlive the longest gap between
// two activations of the holder: the holder extends its grant once per
// activation, so a shorter lease lapses under a healthy leader, which
// then re-acquires under a new epoch and pays the barrier slot again. On
// atomic registers the gap is the idle refresh cadence (d/4); on the SAN,
// where a step blocks in quorum I/O, it is one consensus round (tens of
// milliseconds at commodity disk latencies). And a successor cannot
// commit before the survivors re-agree anyway, about four timer units
// after the crash: a lease that has run out by then is free, a longer one
// is what clients wait for. The atomic default sits under that bound; the
// SAN default cannot (five timer units already lapse there), and
// KVLease(d) means exactly d on either.
func KVLease(d time.Duration) KVOption {
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
// the survivors re-elect. Reads are served from the local applied state —
// sequential consistency, not linearizability.
//
// Under default options the log checkpoints (KVCheckpointEvery): the
// leader periodically seals the committed prefix into a published
// snapshot, a quorum acknowledges it, and the sealed slots recycle — so
// the write stream is unbounded and KVSlots bounds only the in-flight
// window. Disable with KVCheckpointEvery(0) to restore the fixed-capacity
// log and its ErrLogFull semantics.
//
// Replication is wake-driven: each replica is an engine machine that
// parks when idle, is woken the moment a write is enqueued for it (Put
// notifies the leader's machine), and keeps stepping back-to-back
// while work is draining, so commit latency is CPU-bound instead of
// poll-interval-bound and an idle store costs no stepping at all. The
// KVStepInterval cadence remains as the fallback poll for the cases no
// notification covers (a demoted replica waiting to drop or re-propose
// its queue).
type KV struct {
	c        *Cluster
	interval time.Duration
	// kvEnv carries the replicas' stores and the lease (nil: leases off;
	// leaseDur/acquireEps are engine nanoseconds, see KVLease) — the
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
// command but no leadership polls at the fallback cadence (leadership may
// move to it, or the watcher may drop its queue), an idle leader sets one
// timer — to its grant's next refresh, or to the end of the predecessor's
// grant it is waiting out — and an idle caught-up replica parks until a
// write or a commit notification arrives.
func (m *kvMachine) Step(now vclock.Time) engine.Hint {
	kv := m.kv
	if !kv.alive(m.idx) {
		return engine.Park()
	}
	rep := m.step(now)
	switch {
	case rep.barrier || rep.progress > 0:
		return engine.Now()
	case rep.pending > 0:
		// A leader with queued work drains at CPU speed — unless the log
		// can make no progress: permanently full (checkpointing off), or
		// the recycling window is exhausted until a checkpoint gathers its
		// ack quorum, in which case stepping would only spin. The fallback
		// cadence re-checks the acks (the stepped replica reads them and
		// slides the window itself).
		if store := kv.stores[m.idx]; rep.leading && !store.LogFull() && !store.WindowFull() {
			return engine.Now()
		}
		return engine.At(now + int64(kv.interval))
	case rep.holder:
		// An idle leaseholder must not park: its grant needs extending
		// well before expiry or lease reads go dark between writes. A
		// quarter of the grant leaves three refreshes to miss.
		return engine.At(now + kv.leaseDur/4)
	case kv.lease != nil:
		g, _ := kv.lease.Peek()
		// An agreed leader still waiting out a predecessor's grant sleeps
		// to the first instant Acquire can succeed: strictly past the
		// observed expiry plus eps. Each wake re-reads the expiry, so a
		// late extension by the predecessor only moves the timer. When
		// that instant has already passed (a claim lost a race), the
		// fallback cadence retries.
		if at := g.Expiry + kv.acquireEps + 1; rep.leading && at > now {
			return engine.At(at)
		}
		// The register's holder must not park either while the processes
		// do not, at this instant, agree on it: nothing wakes a parked
		// replica when agreement returns to the same leader, and its
		// grant would run out under it. A demotion ends the polling when
		// the successor claims the register.
		if rep.leading || (g.Epoch > 0 && g.Holder == m.idx) {
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
	set := &kvSettings{slots: 1024, interval: c.stepInterval(), burst: 8, batch: 1, ckpt: ckptAuto, lease: leaseAuto}
	blocking := c.DiskCount() > 0 // a register access is quorum disk I/O
	if blocking {
		set.burst = 2 // idle bursts are not free
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
	c.svcMu.Lock()
	if c.kvTaken {
		c.svcMu.Unlock()
		return nil, fmt.Errorf("omegasm: cluster already serves a KV store")
	}
	c.kvTaken = true
	c.svcMu.Unlock()

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
		return nil, fmt.Errorf("omegasm: KVLease needs batching or checkpointing enabled")
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
	kv.kvEnv = kvEnv{
		stores: make([]*consensus.KV, n),
		leader: func() (int, bool) {
			l, ok := c.AgreedLeader()
			return l, ok && l >= 0 && !c.Crashed(l)
		},
		alive: func(p int) bool { return !c.Crashed(p) },
		wake:  func(i int) { kv.at[i].eng.Notify(kv.at[i].id) },
		// Wake the other replicas to learn the new decisions — but only from
		// the commit's origin. A follower that merely learned entries would
		// otherwise re-notify all peers per wave, turning one commit into
		// ~n² notifications of already-informed machines. Then wake any
		// call waiting for its command (or its fence) to land.
		progressed: func(from int, origin bool) {
			for i := 0; origin && i < n; i++ {
				if i != from {
					kv.wake(i)
				}
			}
			kv.commits.signal()
		},
		burst: set.burst,
	}
	if leaseDur > 0 {
		kv.lease = &lease.Register{}
		kv.leaseDur = int64(leaseDur)
		kv.acquireEps = int64(acquireEps(c))
	}
	for i := range kv.stores {
		if kv.stores[i], err = newStore(log, i, c.oracle(i), kv.lease); err != nil {
			return nil, fmt.Errorf("omegasm: kv replica %d: %w", i, err)
		}
		eng := shared
		if blocking {
			eng = newEngine()
		}
		kv.at = append(kv.at, machineRef{eng, eng.Add(&kvMachine{kv, replicaDriver{env: &kv.kvEnv, idx: i}})})
	}
	// The leadership watcher polls at the fallback cadence.
	watcher := leaderWatcher{env: &kv.kvEnv, last: -1}
	shared.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint {
		watcher.observe()
		return engine.At(now + int64(set.interval))
	}))
	for _, eng := range kv.engs {
		if err := eng.Start(); err != nil {
			kv.Close()
			return nil, err
		}
	}
	return kv, nil
}

// Close stops the replication engines and joins them. Reads keep
// answering from the frozen applied state; writes stop committing, and
// blocking calls (Put, PutAll, linearizable Read) — in flight or issued
// later — return ErrClosed. Idempotent.
func (kv *KV) Close() {
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
// replica machine immediately, and the call sleeps on the engine's commit
// broadcast rather than a poll loop, so the latency of an uncontended
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
		l, _, err := t.submit(now)
		if l >= 0 {
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
			if h, _, ok := kv.lease.ReadableHolder(kv.now()); ok {
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

// LeaseDuration returns the leader-lease duration behind ReadLease's
// local linearizable reads (0: leases disabled; see KVLease).
func (kv *KV) LeaseDuration() time.Duration { return time.Duration(kv.leaseDur) }

// LeaseHolder returns the replica currently entitled to serve lease
// reads — the holder of a valid, barrier-complete grant — or ok=false
// when there is none (anarchy, expiry, barrier still in flight, or
// leases disabled). ReadLease serves locally exactly when ok.
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

// Capacity returns the slot count of the replicated log's window. With
// checkpointing on (the default) this bounds only the in-flight portion
// of the stream — total write capacity is unbounded; with
// KVCheckpointEvery(0) it is the store's total capacity. On a batched
// store one slot commits up to BatchSize writes.
func (kv *KV) Capacity() int { return kv.stores[0].Capacity() }

// SlotsUsed returns how many consensus slots the reading replica has
// passed; on a checkpointing store it grows past Capacity as slots
// recycle. On a batched store this lags Applied by the batching factor —
// the ratio Applied()/SlotsUsed() is the measured average batch size.
func (kv *KV) SlotsUsed() int { return kv.readStore().SlotsDecided() }

// Batched reports whether the store packs multi-command batches into
// consensus slots (KVBatch with a size above 1).
func (kv *KV) Batched() bool { return kv.stores[0].Batched() }

// BatchSize returns how many queued writes one consensus slot may commit
// (1: batching off).
func (kv *KV) BatchSize() int { return kv.stores[0].MaxBatch() }

// CheckpointEvery returns how many decided slots separate checkpoint
// seals (0: checkpointing off, the log fills permanently).
func (kv *KV) CheckpointEvery() int { return kv.stores[0].CheckpointEvery() }

// Checkpoints returns how many checkpoints the reading replica has
// passed — the number of times a log prefix was sealed into a snapshot
// and its slots recycled.
func (kv *KV) Checkpoints() int { return kv.readStore().Checkpoints() }
