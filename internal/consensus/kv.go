package consensus

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"omegasm/internal/vclock"
)

// keySpace is the size of the 16-bit key space the flat applied-state
// array covers.
const keySpace = 1 << 16

// statePresent is the presence bit of a flat state word: a key's slot
// holds statePresent|value once any committed Set wrote it (value 0 is
// distinguishable from "never written").
const statePresent = uint32(1) << 16

// KV is a replicated key-value store: the canonical state machine driven
// by the replicated log (the full Paxos-style stack the paper's
// introduction motivates, from the Omega oracle at the bottom to a
// linearizable-ish store at the top).
//
// Commands are Set(key, value) operations over 16-bit keys and values,
// encoded into the log's 32-bit command space. Every replica applies the
// committed prefix in order, so all replicas' states converge to the same
// map; reads are served from the local applied state (and are therefore
// only as fresh as the replica's commit progress — sequential
// consistency, not linearizability; a linearizable read goes through the
// lease or quorum machinery of the public KV).
//
// The store is built for multi-core traffic: the applied state is a flat
// array of atomic words, so Get, Applied and Len never take the step
// lock (readers cannot stall the replication driver, and vice versa);
// the committed tail has a short lock of its own that the stepper takes
// only to mutate it, so VisitTail and CommittedLen never wait out a
// burst's register I/O; and writes are staged under a separate short
// lock that the step path drains, so a submitting writer never waits out
// a full step burst. Lock order: mu (the step lock), then the replica's
// tail lock, then submitMu.
//
// On a checkpointing (recycling) log the KV is also the log's
// Snapshotter: the leader seals the applied map into published snapshots,
// and a replica that falls behind the recycled window installs the
// latest snapshot instead of replaying — so the write stream is
// unbounded while the state stays exact.
type KV struct {
	mu      sync.Mutex
	replica *Replica
	// applied indexes into the global committed command stream (including
	// any prefix summarized by checkpoints): the first applied commands
	// are reflected in state. Written under mu, read lock-free.
	applied atomic.Int64
	// state[k] is key k's applied word: 0 when never written, else
	// statePresent|value. One atomic word per key makes Get a single
	// lock-free load; the applier stores under mu, so per-key values are
	// monotone along the committed stream.
	state []atomic.Uint32
	// keys lists the present keys in first-write order (the command
	// alphabet has no deletes, so the list only grows); under mu. It is
	// what lets snapshots iterate the state deterministically without
	// ranging over a map or scanning the whole key space.
	keys []uint16
	// keyCount mirrors len(keys) for the lock-free Len.
	keyCount atomic.Int64

	// applyObs, when set, observes every individually applied command at
	// its global position (snapshot installs bypass it — they jump the
	// application point without per-command applies). Written before
	// stepping begins, called under mu.
	applyObs func(pos int, cmd uint32)

	// submitMu guards the staging buffer writers append to; StepBurst
	// drains it into the replica's queue under mu. Two buffers swap roles
	// at each drain, so the steady-state submit path never allocates.
	submitMu    sync.Mutex
	staged      []uint32
	stagedSpare []uint32
}

// EncodeSet packs a Set command. Value 0xFFFF is reserved (it would
// collide with the log's NoValue sentinel when paired with key 0xFFFF);
// Set rejects it.
func EncodeSet(key, val uint16) uint32 {
	return uint32(key)<<16 | uint32(val)
}

// DecodeSet unpacks a Set command.
func DecodeSet(cmd uint32) (key, val uint16) {
	return uint16(cmd >> 16), uint16(cmd)
}

// NewKV builds a store replica over the given log replica and attaches
// itself as the replica's snapshotter, enabling checkpoint sealing and
// snapshot install when the log recycles.
func NewKV(replica *Replica) (*KV, error) {
	if replica == nil {
		return nil, fmt.Errorf("consensus: nil replica")
	}
	kv := &KV{
		replica: replica,
		state:   make([]atomic.Uint32, keySpace),
	}
	replica.AttachSnapshotter(kvSnapshotter{kv})
	return kv, nil
}

// kvSnapshotter adapts the store to the log's Snapshotter contract. Its
// methods run inside Replica.Step, i.e. with kv.mu already held by the
// StepBurst that drives the replica, so they touch the fields directly.
type kvSnapshotter struct{ kv *KV }

// SnapshotEntries renders the applied state — fast-forwarded over any
// committed-but-unapplied tail first — as Set commands in ascending key
// order, a pure function of the committed prefix.
func (s kvSnapshotter) SnapshotEntries() []uint32 {
	s.kv.applyCommittedLocked()
	keys := append([]uint16(nil), s.kv.keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]uint32, len(keys))
	for i, k := range keys {
		out[i] = EncodeSet(k, uint16(s.kv.state[k].Load()))
	}
	return out
}

// InstallSnapshot overlays the decoded entries onto the applied state and
// jumps the application point past the sealed prefix. Overlaying (rather
// than replacing) is exact because the command alphabet has no deletes —
// the key set is monotone along the committed stream, and installs only
// move forward — and it keeps concurrent lock-free readers from ever
// observing a present key transiently vanish.
func (s kvSnapshotter) InstallSnapshot(entries []uint32, committedLen int) {
	for _, e := range entries {
		k, v := DecodeSet(e)
		s.kv.setLocked(k, v)
	}
	s.kv.applied.Store(int64(committedLen))
}

// AppliedLen returns the application point; the replica never trims
// retained commands past it.
func (s kvSnapshotter) AppliedLen() int { return int(s.kv.applied.Load()) }

// setLocked applies one Set to the flat state. Callers hold kv.mu.
func (kv *KV) setLocked(key, val uint16) {
	if kv.state[key].Swap(statePresent|uint32(val))&statePresent == 0 {
		kv.keys = append(kv.keys, key)
		kv.keyCount.Add(1)
	}
}

// applyCommittedLocked applies every committed-but-unapplied command in
// log order. Callers hold kv.mu.
func (kv *KV) applyCommittedLocked() {
	base := kv.replica.committedBase
	a := int(kv.applied.Load())
	for a < base+len(kv.replica.committed) {
		cmd := kv.replica.committed[a-base]
		key, val := DecodeSet(cmd)
		kv.setLocked(key, val)
		if kv.applyObs != nil {
			kv.applyObs(a, cmd)
		}
		a++
		kv.applied.Store(int64(a))
	}
}

// SetApplyObserver installs a hook observing every command this replica
// individually applies, with its global position in the committed stream.
// Because commit and apply happen within the same step burst, the hook
// sees each position the moment the replica learns it; positions skipped
// by a snapshot install are not replayed through the hook. Used by the
// scenario recorder to reconstruct the committed stream; must be set
// before stepping begins and must not call back into the KV.
func (kv *KV) SetApplyObserver(f func(pos int, cmd uint32)) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.applyObs = f
}

// Set queues a write for replication. It is applied once committed. On a
// log that reserves the descriptor row (batched or checkpointing) the
// whole key 0xFFFF row is rejected; on a plain log only the pair
// (0xFFFF, 0xFFFF) is (the NoValue sentinel). The write lands in the
// staging buffer under its own short lock — a submitter never waits out
// an in-flight step burst — and enters the replica's queue at the next
// step.
func (kv *KV) Set(key, val uint16) error {
	if IsReserved(EncodeSet(key, val), kv.replica.log.ReservesTopRow()) {
		return fmt.Errorf("consensus: key/value pair (0x%04x, 0x%04x) is reserved", key, val)
	}
	kv.submitMu.Lock()
	kv.staged = append(kv.staged, EncodeSet(key, val))
	kv.submitMu.Unlock()
	return nil
}

// SetAll queues several writes for replication under one lock
// acquisition, rejecting the whole batch (queueing nothing) if any pair
// is reserved. On a batched log the queued run is what a leader packs
// into batch proposals, so submitting related writes together is the
// group-commit fast path.
func (kv *KV) SetAll(pairs ...[2]uint16) error {
	claimed := kv.replica.log.ReservesTopRow()
	for _, p := range pairs {
		if IsReserved(EncodeSet(p[0], p[1]), claimed) {
			return fmt.Errorf("consensus: key/value pair (0x%04x, 0x%04x) is reserved", p[0], p[1])
		}
	}
	kv.submitMu.Lock()
	for _, p := range pairs {
		kv.staged = append(kv.staged, EncodeSet(p[0], p[1]))
	}
	kv.submitMu.Unlock()
	return nil
}

// SubmitBarrier stages a no-op barrier command (see Replica.SubmitBarrier):
// it decides a slot without touching the applied state, which is the fence
// both lease catch-up and quorum reads are built on. Only stores over
// descriptor-row logs (batched or checkpointing) can carry barriers.
func (kv *KV) SubmitBarrier() error {
	if !kv.replica.log.ReservesTopRow() {
		return fmt.Errorf("consensus: no-op barriers need a log that reserves the descriptor row")
	}
	kv.submitMu.Lock()
	kv.staged = append(kv.staged, NoopBarrier)
	kv.submitMu.Unlock()
	return nil
}

// SetAuthority installs the replica's proposal-arming gate (see
// Replica.SetAuthority). Call before the store starts stepping.
func (kv *KV) SetAuthority(f func(vclock.Time) bool) { kv.replica.SetAuthority(f) }

// FenceGen returns the replica's current arm generation — the snapshot a
// fence waiter takes before forcing progress. Taking kv.mu also orders
// the read after any in-flight step burst.
func (kv *KV) FenceGen() uint64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.replica.ArmGen()
}

// FencedSince reports whether a proposal armed after gen (a prior
// FenceGen reading) has since won its own ballot. When true, every
// command committed by any authority before that FenceGen call has been
// learned AND applied at this store — the mu acquisition here orders the
// observation after the step burst that applied them — so a local read
// that follows is linearizable with respect to that point.
func (kv *KV) FencedSince(gen uint64) bool {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.replica.LastWinArmGen() > gen
}

// Noops returns how many no-op barrier slots this replica has learned.
func (kv *KV) Noops() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.replica.Noops()
}

// drainStagedLocked moves staged writes into the replica's queue.
// Callers hold kv.mu; the staging buffers swap roles so neither path
// allocates at steady state.
func (kv *KV) drainStagedLocked() {
	kv.submitMu.Lock()
	batch := kv.staged
	kv.staged = kv.stagedSpare[:0]
	kv.submitMu.Unlock()
	for _, c := range batch {
		kv.replica.Submit(c)
	}
	kv.stagedSpare = batch[:0]
}

// Get returns the value of key in the applied state. It is a single
// atomic load — reads never contend with the replication driver.
func (kv *KV) Get(key uint16) (uint16, bool) {
	w := kv.state[key].Load()
	return uint16(w), w&statePresent != 0
}

// Len returns the number of keys in the applied state (lock-free).
func (kv *KV) Len() int { return int(kv.keyCount.Load()) }

// Applied returns how many commands of the global committed stream are
// reflected in the applied state (including any checkpoint-summarized
// prefix). Lock-free.
func (kv *KV) Applied() int { return int(kv.applied.Load()) }

// Step advances the underlying replica and applies newly committed
// entries in log order.
func (kv *KV) Step(now vclock.Time) { kv.StepN(now, 1) }

// StepN advances the replica by up to n micro-steps under one lock
// acquisition, then applies newly committed entries in log order. Paxos
// phases are micro-steps (one phase action each), so a slot commit needs
// several; bursting them amortizes the lock handoff when writers contend
// for the store — on a timer-resolution-bound host this is the difference
// between one commit per several ticks and several commits per tick.
func (kv *KV) StepN(now vclock.Time, n int) { kv.StepBurst(now, n) }

// StepBurst is StepN reporting progress, for wake-driven engines: it
// returns how much the burst advanced the store — newly committed
// entries plus newly decided slots, so command-free slots (checkpoints,
// no-op barriers) still count; snapshot installs count their whole
// skipped prefix — how many submitted commands remain unproposed, and
// whether the burst ended idle. A burst is at most n micro-steps and ends
// at its first idle one: the slot was undecided and the replica had
// nothing to propose, or it just committed a slot its own ballot won and
// has nothing more to propose (see Replica.step) — either way another
// step would only poll a row no one else is arming.
// A driver decides between stepping again immediately (work is
// draining), polling later (idle), or signalling waiters (progress
// landed: committed writes, or a barrier some fence waiter needs).
func (kv *KV) StepBurst(now vclock.Time, n int) (progress, pending int, idle bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.drainStagedLocked()
	before := kv.replica.CommittedLen()
	beforeSlots := kv.replica.SlotsDecided()
	for i := 0; i < n && !idle; i++ {
		idle = kv.replica.step(now)
	}
	kv.applyCommittedLocked()
	progress = kv.replica.CommittedLen() - before +
		kv.replica.SlotsDecided() - beforeSlots
	return progress, kv.replica.pendingLen(), idle
}

// Committed returns a copy of the replica's retained committed tail, in
// log order: the full history on a non-recycling log, the commands since
// the last fully-applied checkpoint on a recycling one. Like VisitTail it
// takes only the tail lock.
func (kv *KV) Committed() []uint32 {
	r := kv.replica
	r.tail.Lock()
	defer r.tail.Unlock()
	return r.Committed()
}

// CommittedLen returns the length of the whole committed command stream,
// including any checkpoint-summarized prefix and entries a burst in
// flight has committed but not yet applied. It takes only the tail lock,
// so it returns while the replica is inside a step's register I/O.
func (kv *KV) CommittedLen() int {
	r := kv.replica
	r.tail.Lock()
	defer r.tail.Unlock()
	return r.CommittedLen()
}

// VisitTail calls visit, in log order, for every retained and applied
// command from global index from on, and returns the caller's next
// watermark — never below from — plus how many commands between from
// and the retained tail were skipped because a checkpoint summarized them
// away first. Only applied entries are visited, so a caller that finds
// its command here finds its write in this replica's state; a watermark
// that leads the applied prefix (a CommittedLen reading taken mid-burst)
// comes back unchanged, so the entries before it are never visited.
// A writer that watches many commands at once scans each appended
// region exactly once by resuming from the returned watermark, and the
// scan copies nothing; a skipped command cannot confirm anything, so the
// writer must treat whatever it had queued here as possibly committed
// unseen (and resubmit: Set is idempotent). VisitTail takes only the
// tail lock, never the step lock, so it returns while the replica is
// inside a step's register I/O; visit runs under the tail lock, so it
// must be brief and must not call back into the KV.
func (kv *KV) VisitTail(from int, visit func(cmd uint32)) (next, skipped int) {
	r := kv.replica
	r.tail.Lock()
	defer r.tail.Unlock()
	base := r.committedBase
	// applied can only lead the tail inside a snapshot install, which
	// jumps it before resetting the tail.
	end := min(int(kv.applied.Load()), base+len(r.committed))
	skipped = max(base-from, 0)
	for _, c := range r.committed[min(from+skipped, end)-base : end-base] {
		visit(c)
	}
	return max(end, from), skipped
}

// Capacity returns the slot capacity of the log window: the total log
// capacity of a non-recycling store, the in-flight window of a recycling
// one (whose command stream is unbounded). On a batched log one slot can
// decide up to MaxBatch commands.
func (kv *KV) Capacity() int {
	return kv.replica.log.Cap()
}

// SlotsDecided returns how many global log slots this replica has passed
// (learned or skipped via snapshot install); on a recycling store it
// grows without bound.
func (kv *KV) SlotsDecided() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.replica.SlotsDecided()
}

// LogFull reports whether the store can accept no further writes: every
// slot of a non-recycling log has been decided and learned at this
// replica. A recycling store never fills — that case short-circuits
// without the step lock, keeping the per-write check off the contended
// path; transient window backpressure is WindowFull.
func (kv *KV) LogFull() bool {
	if kv.replica.log.Recycling() {
		return false
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.replica.LogFull()
}

// WindowFull reports whether the replica sits at the end of the recycling
// window, waiting for a checkpoint to be quorum-acknowledged before more
// slots can decide. Always false on a non-recycling store.
func (kv *KV) WindowFull() bool {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.replica.WindowFull()
}

// Batched reports whether the underlying log packs multi-command batches
// into consensus slots.
func (kv *KV) Batched() bool { return kv.replica.log.Batched() }

// MaxBatch returns the largest number of commands one consensus slot of
// the underlying log may decide (1 on an unbatched log).
func (kv *KV) MaxBatch() int { return kv.replica.log.MaxBatch() }

// Recycling reports whether the underlying log checkpoints and recycles
// slots, i.e. whether the store's write stream is unbounded.
func (kv *KV) Recycling() bool { return kv.replica.log.Recycling() }

// CheckpointEvery returns the log's sealing cadence in slots (0: off).
func (kv *KV) CheckpointEvery() int { return kv.replica.log.CheckpointEvery() }

// ReservesTopRow reports whether key 0xFFFF is reserved on this store
// (the log is batched or checkpointing, so the descriptor row is
// claimed).
func (kv *KV) ReservesTopRow() bool { return kv.replica.log.ReservesTopRow() }

// Checkpoints returns how many checkpoints this replica has passed.
func (kv *KV) Checkpoints() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.replica.Checkpoints()
}

// SnapshotInstalls returns how many checkpoints this replica passed by
// installing a published snapshot (the lagging-replica path).
func (kv *KV) SnapshotInstalls() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.replica.SnapshotInstalls()
}

// PendingLen returns how many submitted commands are still waiting in the
// replica's queue or the staging buffer (neither committed nor dropped).
func (kv *KV) PendingLen() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.submitMu.Lock()
	staged := len(kv.staged)
	kv.submitMu.Unlock()
	return kv.replica.pendingLen() + staged
}

// DropGeneration returns how many times this replica's pending queue has
// been swept by DropPending. Writers cache it at submit time: a changed
// generation means a leadership flap may have dropped their command even
// if the same replica is leader again, so they must re-check and
// resubmit. One atomic-free comparison replaces a queue scan.
func (kv *KV) DropGeneration() uint64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.replica.dropGen
}

// DropPending discards the replica's queued-but-unproposed commands —
// staged writes included — and returns how many were dropped. The
// replicated-service layer calls it on the replicas a leadership change
// left behind: their queues would otherwise be re-proposed whenever that
// replica regains leadership, committing stale writes after newer ones.
func (kv *KV) DropPending() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.submitMu.Lock()
	n := len(kv.staged)
	kv.staged = kv.staged[:0]
	kv.submitMu.Unlock()
	n += kv.replica.pendingLen()
	if n > 0 {
		kv.replica.clearPending()
		kv.replica.dropGen++
	}
	return n
}

// Snapshot returns a copy of the applied state.
func (kv *KV) Snapshot() map[uint16]uint16 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	out := make(map[uint16]uint16, len(kv.keys))
	for _, k := range kv.keys {
		out[k] = uint16(kv.state[k].Load())
	}
	return out
}
