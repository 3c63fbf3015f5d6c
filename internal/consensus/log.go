package consensus

import (
	"fmt"
	"sort"
	"sync"

	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// Register class names of the batch and checkpoint areas (the per-slot
// consensus classes are in consensus.go).
const (
	// ClassBatchHdr is the class of the per-process batch header areas.
	ClassBatchHdr = "BHDR"
	// ClassBatchData is the class of the per-process batch data areas.
	ClassBatchData = "BDAT"
	// ClassSnapHdr is the class of the per-publication snapshot header
	// registers (the word that marks a snapshot publication complete).
	ClassSnapHdr = "SNAPH"
	// ClassSnapMeta is the class of the per-publication snapshot metadata
	// registers (the committed-stream length the snapshot summarizes).
	ClassSnapMeta = "SNAPM"
	// ClassSnapData is the class of the per-publication snapshot data
	// registers (two encoded state entries per 64-bit word).
	ClassSnapData = "SNAPD"
	// ClassCkptAck is the class of the per-process checkpoint ack
	// registers: ACK[p] = 1 + the highest slot a checkpoint learned by p
	// has sealed (0: none). Recycling waits for a quorum of these.
	ClassCkptAck = "CKACK"
	// ClassCkptPtr is the class of the per-process latest-checkpoint
	// pointer registers: PTR[p] names the newest checkpoint publication p
	// has learned, so a replica whose next slot was recycled can find the
	// snapshot to install.
	ClassCkptPtr = "CKPTR"
)

// MaxBatchProcs is the largest process count a batched or checkpointing
// log supports: descriptors pack the publishing process id into four bits.
const MaxBatchProcs = 16

// Descriptors live in the top row of the 32-bit command space: commands
// whose high 16 bits are all ones. A descriptor names a publication —
// (pid, seq) — rather than carrying a command itself, exactly the
// pointer-to-value indirection Disk Paxos uses for large proposals. The
// 16 payload bits split into a 4-bit process id and a 12-bit sequence
// number whose top bit distinguishes the two descriptor families:
//
//   - batch descriptors (seq bit 11 clear): the slot decides the batch of
//     commands published in the proposer's batch area.
//   - checkpoint descriptors (seq bit 11 set): the slot seals every slot
//     before it; the proposer's snapshot area holds the state-machine
//     snapshot covering the sealed prefix.
//
// On a log that reserves the top row (batched or checkpointing), Submit
// must not be given plain commands with all-ones high bits (KV.Set
// enforces this by rejecting key 0xFFFF).
const batchDescMark = uint32(0xFFFF0000)

// ckptSeqFlag is the descriptor-seq bit that marks a checkpoint
// publication on a checkpointing log.
const ckptSeqFlag = 0x800

// NoopBarrier is the no-op barrier command: a descriptor-row word that
// decides a slot without appending anything to the committed stream.
// Leaders commit it as a fence — the lease catch-up barrier after an
// acquisition, and the marker slot behind a quorum read — when no write
// traffic is flowing to fence on. Its coordinates, pid 15 seq 0xFFE, are
// unreachable by any publisher on any log family: batch sequences stay
// below 4094 (0xFFE) and checkpoint sequences below 2046 under the 0x800
// family flag, so the sequence payload 0xFFE is never produced, and the
// word is one below the NoValue sentinel. Only logs that reserve the
// descriptor row may carry it (elsewhere it would be a legal user
// command).
const NoopBarrier = batchDescMark | 0xF<<12 | 0xFFE

// The per-process publication sequence caps. A non-checkpointing batched
// log has the whole 12-bit sequence space to itself (capped one short of
// the coordinates that would collide with the NoValue sentinel, with a
// symmetric margin — the historical 4094). A checkpointing log splits
// the space between the two descriptor families at bit 11, 2046 each.
// Sequence numbers recycle as a ring on a checkpointing log (a
// publication whose slot fell behind the recycled window can never be
// resolved again), so there the caps bound in-flight publications, not
// the stream length.
const (
	batchSeqCapPlain = 4094
	batchSeqCapCkpt  = 2046
	ckptSeqCap       = 2046
)

// encodeBatchDesc packs a batch publication identity into a descriptor
// command: 16 mark bits, 4 process-id bits, 12 sequence bits. On a
// checkpointing log batch sequences stay below ckptSeqFlag.
func encodeBatchDesc(pid, seq int) uint32 {
	return batchDescMark | uint32(pid)<<12 | uint32(seq)
}

// encodeCkptDesc packs a checkpoint publication identity into a
// descriptor command (sequence bit 11 set).
func encodeCkptDesc(pid, seq int) uint32 {
	return batchDescMark | uint32(pid)<<12 | uint32(ckptSeqFlag|seq)
}

// decodeBatchDesc unpacks a batch descriptor's publication coordinates
// (the full 12-bit sequence: on a checkpointing log bit 11 is always
// clear for batches, so this is correct on every log).
func decodeBatchDesc(cmd uint32) (pid, seq int) {
	return int(cmd >> 12 & 0xF), int(cmd & 0xFFF)
}

// decodeCkptDesc unpacks a checkpoint descriptor's publication
// coordinates (the 11-bit sequence below the family flag).
func decodeCkptDesc(cmd uint32) (pid, seq int) {
	return int(cmd >> 12 & 0xF), int(cmd & 0x7FF)
}

// isDesc reports whether cmd lies in the descriptor row. NoValue also
// has all-ones high bits, but it is never decided (Submit and
// NewProposer both reject it), so a decided command in the top row is a
// descriptor.
func isDesc(cmd uint32) bool { return cmd&batchDescMark == batchDescMark }

// isCkptDesc reports whether cmd is a checkpoint descriptor — only
// meaningful on a checkpointing log, where batch sequences never set the
// family flag. (On a plain batched log the whole row is batch
// descriptors and this predicate must not be consulted.)
func isCkptDesc(cmd uint32) bool {
	return isDesc(cmd) && cmd&ckptSeqFlag != 0
}

// IsReserved reports whether cmd may not be submitted to a log whose
// top command-space row is claimed by descriptors (rowClaimed: the log is
// batched or checkpointing). On a plain fixed-capacity unbatched log only
// the NoValue sentinel is reserved.
func IsReserved(cmd uint32, rowClaimed bool) bool {
	if rowClaimed {
		return cmd&batchDescMark == batchDescMark
	}
	return cmd == NoValue
}

// packBatchHdr packs a publication's extent — its first data-word offset
// and its command count — into the publisher's header register.
func packBatchHdr(start, count int) uint64 {
	return uint64(start)<<32 | uint64(uint32(count))
}

func unpackBatchHdr(w uint64) (start, count int) {
	return int(w >> 32), int(uint32(w))
}

// packCkptPtr packs a latest-checkpoint pointer: the sealed slot (plus
// one, so the zero word means "no checkpoint yet") in the high bits —
// making the numeric maximum over all pointer registers the newest
// checkpoint — and the publication coordinates in the low bits.
func packCkptPtr(sealSlot, pid, seq int) uint64 {
	return uint64(sealSlot+1)<<16 | uint64(pid)<<12 | uint64(seq)
}

func unpackCkptPtr(w uint64) (sealSlot, pid, seq int) {
	return int(w>>16) - 1, int(w >> 12 & 0xF), int(w & 0x7FF)
}

// Snapshotter is the state-machine side of checkpointing: the replicated
// log seals prefixes into snapshots, but only the state machine driving
// the replica (the KV store) knows how to render and install its state.
// All three methods are called from inside Replica.Step, i.e. under
// whatever lock the state machine holds while stepping — implementations
// must not re-acquire it.
type Snapshotter interface {
	// SnapshotEntries returns the canonical encoding of the state after
	// applying every currently committed command, fast-forwarding the
	// application point first if it lags. The encoding must be a pure
	// function of the committed prefix (deterministic order), because
	// every replica must be able to reproduce the same sealed state.
	SnapshotEntries() []uint32
	// InstallSnapshot replaces the state with the decoded entries and
	// records that the first committedLen commands of the log's command
	// stream are reflected in it.
	InstallSnapshot(entries []uint32, committedLen int)
	// AppliedLen returns how many commands of the committed stream the
	// state machine has applied; the replica never discards retained
	// committed entries beyond this point.
	AppliedLen() int
}

// snapArea is the register storage of one published snapshot. Areas are
// pooled per process: a publication takes a free area (growing its data
// registers if the state outgrew it), and the area returns to the pool
// when the publication is reclaimed — so the substrate footprint and the
// register namespace of checkpointing are bounded by the in-flight
// publications, not the stream length. Reuse is safe because an area is
// only freed once its publication can never be dereferenced again, and
// the single writer republishes data-then-meta-then-header before the
// new descriptor can be proposed. (Reusing the same register objects
// also keeps a disk-backed register's internal write sequencing
// monotone, which a fresh object with a recycled name would not.)
type snapArea struct {
	pool int       // index in the owner's pool; register names derive from it
	hdr  shmem.Reg // entry count + 1, written last: nonzero = complete
	meta shmem.Reg // committed-stream length the snapshot summarizes
	data []shmem.Reg
}

// slotStatus classifies a global slot index against the log's current
// window.
type slotStatus int

const (
	slotOK       slotStatus = iota // in the window: learn/propose normally
	slotRecycled                   // behind the window: install a snapshot
	slotAhead                      // past the window: full (or not yet recycled)
)

// Log is a replicated log: consensus instances over one shared memory.
// Slot s's decision is the s-th decided value of every replica's slot
// sequence — the classic Omega/Paxos state-machine-replication
// construction the paper's introduction motivates.
//
// A log built with NewBatchLog additionally carries per-process batch
// areas, and a slot's decided value may then be a batch descriptor that
// expands to up to MaxBatch commands, so the committed command stream can
// be longer than the number of decided slots.
//
// A log built with NewCheckpointLog is additionally *recycling*: slot
// storage is a fixed-size window over an unbounded global slot sequence.
// The leader periodically proposes a checkpoint command that seals the
// log prefix before it into a snapshot published on the substrate; once a
// quorum of replicas has durably acknowledged passing the checkpoint, the
// sealed slots are recycled — the window slides forward, reusing the ring
// positions with fresh per-epoch register areas — and the write stream is
// unbounded. A replica that falls behind the window installs the latest
// snapshot instead of replaying the recycled slots.
type Log struct {
	// N is the number of replica processes.
	N int

	mem shmem.Mem
	// maxBatch is the largest number of commands one slot may decide
	// (1: plain log, no batch areas allocated).
	maxBatch int
	// ckptEvery is the sealing cadence in slots (0: checkpointing off, the
	// log is a fixed array and fills permanently).
	ckptEvery int

	// mu guards the window (ring, base) and the publication areas: slot
	// lookup, window advancement, publication writes/reclaims and
	// descriptor resolution all serialize here, so a resolver can never
	// observe a publication being recycled under it.
	mu sync.Mutex
	// ring[g%cap] holds the consensus instance of global slot g for the
	// g in [base, base+cap). Recycled positions are re-pointed at fresh
	// instances (fresh per-epoch registers), never reset in place: stale
	// reads of a sealed epoch's registers are impossible because the old
	// instance objects are unreachable once the window moves.
	ring []*Instance
	// base is the first global slot the window still holds; every slot
	// below it is sealed by a quorum-acknowledged checkpoint.
	base int

	// hdr[p][seq] is process p's header register for its seq-th batch
	// publication; data[p][w] the w-th word of its batch data area. Both
	// are single-writer (owned by p) and written only before the
	// publication's descriptor is proposed, so their contents are
	// immutable by the time any reader can learn the descriptor. On a
	// recycling log both are rings: a sequence number and its data words
	// are reused once the publication can no longer be resolved.
	hdr  [][]shmem.Reg
	data [][]shmem.Reg

	// ack[p] and ptr[p] are the checkpoint registers (ClassCkptAck,
	// ClassCkptPtr); snaps[p][seq] maps a live publication to its area,
	// snapFree[p] holds process p's reusable areas, and snapPoolN[p]
	// counts how many areas p has ever allocated (the next pool name).
	ack       []shmem.Reg
	ptr       []shmem.Reg
	snaps     []map[int]*snapArea
	snapFree  [][]*snapArea
	snapPoolN []int
}

// NewLog allocates slots consensus instances for n processes in mem. The
// log is unbatched and non-recycling: every slot decides exactly one
// command and the log fills permanently after slots decisions.
func NewLog(mem shmem.Mem, n, slots int) *Log {
	l, err := NewCheckpointLog(mem, n, slots, 1, 0)
	if err != nil {
		// Unreachable: maxBatch 1 and ckptEvery 0 skip every validation.
		panic(err)
	}
	return l
}

// NewBatchLog allocates a non-recycling replicated log whose slots may
// decide batches of up to maxBatch commands; it is NewCheckpointLog with
// checkpointing off. maxBatch 1 is exactly NewLog.
func NewBatchLog(mem shmem.Mem, n, slots, maxBatch int) (*Log, error) {
	return NewCheckpointLog(mem, n, slots, maxBatch, 0)
}

// NewCheckpointLog allocates a replicated log over a window of slots
// consensus instances, with per-slot batches of up to maxBatch commands
// and — when ckptEvery > 0 — checkpoint-driven slot recycling every
// ckptEvery slots, which makes the write stream unbounded.
//
// For maxBatch > 1 the log reserves the all-ones top row of the command
// space for descriptors (so 16-bit key/value commands lose key 0xFFFF)
// and supports at most MaxBatchProcs processes; ckptEvery > 0 claims the
// same row and the same process cap for checkpoint descriptors. Each
// process gets a batch header area of min(slots, 4094) publications
// (2046 on a checkpointing log, where checkpoints claim half the
// sequence space) and a
// data area sized so every one of those publications can carry a full
// maxBatch commands (two per 64-bit word): a stable leader can therefore
// batch at full width for the whole window. Leadership churn can still
// burn publications whose slot another proposer wins; a proposer that
// exhausts its areas falls back to plain single-command proposals, so
// batching degrades, never wedges — and on a recycling log spent
// publications are reclaimed, so degradation is transient.
//
// ckptEvery must leave room for the checkpoint command itself inside the
// window: 0 < ckptEvery < slots (or 0 to disable).
func NewCheckpointLog(mem shmem.Mem, n, slots, maxBatch, ckptEvery int) (*Log, error) {
	if maxBatch < 1 {
		return nil, fmt.Errorf("consensus: batch size must be at least 1, got %d", maxBatch)
	}
	if maxBatch > 1 && n > MaxBatchProcs {
		return nil, fmt.Errorf("consensus: batched log supports at most %d processes, got %d", MaxBatchProcs, n)
	}
	if ckptEvery < 0 {
		return nil, fmt.Errorf("consensus: checkpoint interval must not be negative, got %d", ckptEvery)
	}
	if ckptEvery > 0 {
		if n > MaxBatchProcs {
			return nil, fmt.Errorf("consensus: checkpointing log supports at most %d processes, got %d", MaxBatchProcs, n)
		}
		if ckptEvery >= slots {
			return nil, fmt.Errorf("consensus: checkpoint interval %d must be below the %d-slot window", ckptEvery, slots)
		}
	}
	l := &Log{N: n, mem: mem, maxBatch: maxBatch, ckptEvery: ckptEvery, ring: make([]*Instance, slots)}
	initial := NewInstances(mem, n, 0, slots)
	for s := range l.ring {
		l.ring[s] = &initial[s]
	}
	if maxBatch > 1 {
		maxSeq := batchSeqCapPlain
		if ckptEvery > 0 {
			maxSeq = batchSeqCapCkpt // checkpoint descriptors claim bit 11
		}
		hdrCap := slots
		if hdrCap > maxSeq {
			hdrCap = maxSeq
		}
		dataCap := hdrCap * ((maxBatch + 1) / 2)
		l.hdr = make([][]shmem.Reg, n)
		l.data = make([][]shmem.Reg, n)
		for p := 0; p < n; p++ {
			l.hdr[p] = make([]shmem.Reg, hdrCap)
			for s := range l.hdr[p] {
				l.hdr[p][s] = mem.Word(p, ClassBatchHdr, p, s)
			}
			l.data[p] = make([]shmem.Reg, dataCap)
			for w := range l.data[p] {
				l.data[p][w] = mem.Word(p, ClassBatchData, p, w)
			}
		}
	}
	if ckptEvery > 0 {
		l.ack = make([]shmem.Reg, n)
		l.ptr = make([]shmem.Reg, n)
		l.snaps = make([]map[int]*snapArea, n)
		l.snapFree = make([][]*snapArea, n)
		l.snapPoolN = make([]int, n)
		for p := 0; p < n; p++ {
			l.ack[p] = mem.Word(p, ClassCkptAck, p)
			l.ptr[p] = mem.Word(p, ClassCkptPtr, p)
			l.snaps[p] = make(map[int]*snapArea)
		}
	}
	return l, nil
}

// takeAreaLocked hands process p a snapshot area with room for words
// data registers: a pooled free area (grown if the state outgrew it) or
// a freshly named one. Callers hold l.mu.
func (l *Log) takeAreaLocked(p, words int) *snapArea {
	var area *snapArea
	if n := len(l.snapFree[p]); n > 0 {
		area = l.snapFree[p][n-1]
		l.snapFree[p] = l.snapFree[p][:n-1]
	} else {
		area = &snapArea{
			pool: l.snapPoolN[p],
			hdr:  l.mem.Word(p, ClassSnapHdr, p, l.snapPoolN[p]),
			meta: l.mem.Word(p, ClassSnapMeta, p, l.snapPoolN[p]),
		}
		l.snapPoolN[p]++
	}
	for w := len(area.data); w < words; w++ {
		area.data = append(area.data, l.mem.Word(p, ClassSnapData, p, area.pool, w))
	}
	return area
}

// freeAreaLocked returns a reclaimed publication's area to its owner's
// pool. Callers hold l.mu and have already unmapped the publication.
func (l *Log) freeAreaLocked(p int, area *snapArea) {
	if area != nil {
		l.snapFree[p] = append(l.snapFree[p], area)
	}
}

// DefaultCheckpointEvery is the sealing cadence a default-options store
// derives from its window: a quarter of the slot count (at least 1), or
// 0 — checkpointing off — for configurations that cannot checkpoint (a
// sub-2-slot window, or more processes than descriptors can name). The
// public KV constructor and the deterministic simulator both resolve
// their "checkpointing on by default" knobs through this one rule.
func DefaultCheckpointEvery(slots, n int) int {
	if slots < 2 || n > MaxBatchProcs {
		return 0
	}
	every := slots / 4
	if every < 1 {
		every = 1
	}
	return every
}

// Batched reports whether slots of this log may decide multi-command
// batches.
func (l *Log) Batched() bool { return l.maxBatch > 1 }

// MaxBatch returns the largest number of commands one slot may decide.
func (l *Log) MaxBatch() int { return l.maxBatch }

// Recycling reports whether the log recycles sealed slots (checkpointing
// is on), i.e. whether its write stream is unbounded.
func (l *Log) Recycling() bool { return l.ckptEvery > 0 }

// CheckpointEvery returns the sealing cadence in slots (0: off).
func (l *Log) CheckpointEvery() int { return l.ckptEvery }

// ReservesTopRow reports whether the all-ones top row of the command
// space is claimed by descriptors (the log is batched or checkpointing).
func (l *Log) ReservesTopRow() bool { return l.maxBatch > 1 || l.ckptEvery > 0 }

// Cap returns the window capacity in slots: the total log capacity of a
// non-recycling log, and the in-flight window of a recycling one.
func (l *Log) Cap() int { return len(l.ring) }

// Base returns the first global slot the window still holds (always 0 on
// a non-recycling log).
func (l *Log) Base() int {
	if l.ckptEvery == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// instance classifies global slot g against the window and returns its
// consensus instance when it is live. A non-recycling log's window never
// moves, so its lookup skips the window lock entirely (the ring is
// immutable after construction) — the hot learn/propose path costs
// exactly what it did before recycling existed.
func (l *Log) instance(g int) (*Instance, slotStatus) {
	if l.ckptEvery == 0 {
		if g >= len(l.ring) {
			return nil, slotAhead
		}
		return l.ring[g], slotOK
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if g < l.base {
		return nil, slotRecycled
	}
	if g >= l.base+len(l.ring) {
		return nil, slotAhead
	}
	return l.ring[g%len(l.ring)], slotOK
}

// advance slides the window forward to newBase, repointing the recycled
// ring positions at fresh per-epoch instances (register tag = the global
// slot index, so a recycled epoch's registers are never read as the new
// epoch's). Only slots sealed by a quorum-acknowledged checkpoint are
// ever passed as newBase.
func (l *Log) advance(newBase int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if newBase <= l.base {
		return
	}
	n := len(l.ring)
	// One bulk allocation covers every recycled position of this advance
	// (a checkpoint interval of slots), instead of per-slot objects on
	// the steady-state commit path.
	fresh := NewInstances(l.mem, l.N, l.base+n, newBase-l.base)
	for j, g := 0, l.base+n; g < newBase+n; j, g = j+1, g+1 {
		// The sealed epoch's registers are permanently dead (its instance
		// object becomes unreachable, and its globally-unique names are
		// never allocated again): release their substrate backing — disk
		// blocks, census rows — so an unbounded stream has a bounded
		// footprint.
		if old := l.ring[g%n]; old != nil {
			for _, reg := range old.regs {
				shmem.DiscardIfPossible(l.mem, reg)
			}
		}
		l.ring[g%n] = &fresh[j]
	}
	l.base = newBase
}

// readSnapshot reads publication (pid, seq) on behalf of reader, checking
// under the window lock that the area is still live and complete.
func (l *Log) readSnapshot(reader, pid, seq int) (entries []uint32, committedLen int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	area := l.snaps[pid][seq]
	if area == nil {
		return nil, 0, false
	}
	h := area.hdr.Read(reader)
	if h == 0 {
		return nil, 0, false
	}
	count := int(h - 1)
	entries = make([]uint32, 0, count)
	for w := 0; len(entries) < count; w++ {
		word := area.data[w].Read(reader)
		entries = append(entries, uint32(word))
		if len(entries) < count {
			entries = append(entries, uint32(word>>32))
		}
	}
	return entries, int(area.meta.Read(reader)), true
}

// pub tracks one in-flight publication of a replica's own areas: its
// sequence number, the global slot it was proposed for, its descriptor,
// and (for batches) how many data words it occupies. A publication can be
// reclaimed once it can never be resolved again: its slot fell behind the
// recycled window, or its slot decided a different value.
type pub struct {
	seq   int
	slot  int
	desc  uint32
	words int
}

// Replica is one process's view of the replicated log. It learns decided
// slots in order, and — while the Omega oracle names it leader — proposes
// for the first undecided slot: a checkpoint when one is due, its oldest
// pending command, or, on a batched log with two or more pending
// commands, a freshly published batch of up to MaxBatch of them.
type Replica struct {
	log   *Log
	id    int
	omega func() int
	// authority, when set, additionally gates the arming of every new
	// proposal (commands, batches, checkpoints and barriers alike): the
	// replica arms only when authority(now) is true. The lease layer
	// installs the holder check here, which is what confines commits to
	// lease validity windows. A proposal already armed keeps stepping —
	// it was authorized at arming, and the successor's catch-up barrier
	// is what fences its eventual commit (see the lease package).
	authority func(vclock.Time) bool
	// armGen counts proposals armed; curArmGen is the generation of the
	// currently armed one, and lastWinArmGen the generation of the newest
	// proposal that won its own ballot (see Proposer.WonBallot). A waiter
	// that snapshots armGen and then observes lastWinArmGen exceed it
	// knows a proposal armed after the snapshot has decided — the fence
	// primitive behind lease barriers and quorum reads.
	armGen        uint64
	curArmGen     uint64
	lastWinArmGen uint64
	// noops counts decided no-op barrier slots (never part of the
	// committed command stream).
	noops int

	// committed is the retained tail of the flattened command stream:
	// descriptors are resolved at learn time, so it never contains
	// descriptors. committedBase counts the commands before the tail that
	// have been summarized away by checkpoints (always 0 on a
	// non-recycling log, where the full history is retained); global
	// command-stream indices are committedBase + tail offset.
	committed     []uint32
	committedBase int
	slotsDecided  int
	// pending[pendingHead:] is the submitted-but-uncommitted queue. The
	// head index makes the pop O(1) without shrinking the array from the
	// front (which would force append to reallocate every refill); Submit
	// compacts the consumed prefix back over itself once it dominates the
	// array, so the queue's storage is bounded by its high-water mark and
	// the steady-state submit path never allocates.
	pending     []uint32
	pendingHead int
	// dropGen counts DropPending calls, so writers can detect a queue
	// sweep they never observed with one comparison.
	dropGen uint64

	// resolveBuf is the scratch buffer resolveSlot decodes into; its
	// contents are consumed (copied into committed) before the next
	// resolve, so reusing it keeps slot learning allocation-free.
	resolveBuf []uint32

	// prop is reused across slots (reset, not reallocated); propSlot -1
	// means it is not armed for the current slot.
	prop     *Proposer
	propSlot int
	// decRow is the learn poll's row buffer (see Instance.readDecision).
	decRow []uint64

	// cachedInst/cachedSlot memoize the window lookup of the slot the
	// replica is working on: a slot takes several micro-steps to settle,
	// and only the first needs the window lock. A cached instance can go
	// stale if the window advances past the slot mid-work; that is benign
	// — decisions read from it are still slot-accurate (decision registers
	// are immutable once written), descriptor resolution re-checks the
	// window under the lock, and writes to reclaimed registers are
	// tombstoned by the substrate — and the next lookup lands on the
	// install path.
	cachedInst *Instance
	cachedSlot int

	// Own publication state: in-flight batch and checkpoint publications
	// (fifo, slot-ordered) plus the ring cursors of the batch data area.
	// Publications stay immutable while in flight — a proposed descriptor
	// may commit long after the proposer moved on (ballot adoption) — and
	// are reclaimed only once they can never be resolved again.
	batchPubs    []pub
	nextBatchSeq int
	dataOff      int
	dataUsed     int
	ckptPubs     []pub
	nextCkptSeq  int

	// Checkpoint learning state.
	snap Snapshotter
	// lastSealSlot is the slot of the newest checkpoint this replica has
	// passed (-1: none); ckptSeen counts them and installs counts the ones
	// passed by installing a snapshot rather than replaying.
	lastSealSlot int
	ckptSeen     int
	installs     int
	// selfLatestSeq is the sequence of this replica's own publication when
	// the newest checkpoint it knows is its own (-1 otherwise); that
	// publication is exempt from reclaiming because a lagging replica may
	// still install from it.
	selfLatestSeq int
}

// NewReplica creates replica id over log with the given leader oracle.
func NewReplica(log *Log, id int, omega func() int) (*Replica, error) {
	if omega == nil {
		return nil, fmt.Errorf("consensus: nil omega oracle")
	}
	return &Replica{
		log: log, id: id, omega: omega,
		// Pre-size the committed tail to the window's worst case so the
		// steady-state learn path appends without reallocating (a
		// recycling log's tail is trimmed in place at each seal, keeping
		// this capacity; growth past it is amortized as usual).
		committed: make([]uint32, 0, log.Cap()*log.MaxBatch()),
		decRow:    make([]uint64, log.N),
		propSlot:  -1, lastSealSlot: -1, selfLatestSeq: -1, cachedSlot: -1,
	}, nil
}

// AttachSnapshotter binds the state-machine snapshot hooks checkpointing
// needs. On a recycling log a replica without a snapshotter can neither
// propose checkpoints nor install snapshots (it wedges if it falls behind
// the window); the KV state machine attaches itself in NewKV.
func (r *Replica) AttachSnapshotter(s Snapshotter) { r.snap = s }

// Submit queues a command for replication. Commands of different replicas
// should be distinct values (e.g. tag the replica id into the value);
// duplicate values are committed once per slot that decides them. On a
// log that reserves the descriptor row, commands in that row (IsReserved)
// must not be submitted.
func (r *Replica) Submit(cmd uint32) {
	if h := r.pendingHead; h > 0 && h >= len(r.pending)-h {
		// The consumed prefix dominates the array: slide the live tail
		// down so append reuses the freed capacity instead of growing.
		n := copy(r.pending, r.pending[h:])
		r.pending = r.pending[:n]
		r.pendingHead = 0
	}
	r.pending = append(r.pending, cmd)
}

// SubmitBarrier queues a no-op barrier: a command that decides a slot
// without extending the committed stream. It is only meaningful on logs
// that reserve the descriptor row (batched or checkpointing); on a plain
// log the word would collide with the user command space.
func (r *Replica) SubmitBarrier() error {
	if !r.log.ReservesTopRow() {
		return fmt.Errorf("consensus: no-op barriers need a log that reserves the descriptor row")
	}
	r.Submit(NoopBarrier)
	return nil
}

// SetAuthority installs the arming gate (see the authority field). Call
// before the replica starts stepping; nil leaves arming gated only on
// the Omega oracle, the pre-lease behavior.
func (r *Replica) SetAuthority(f func(vclock.Time) bool) { r.authority = f }

// ArmGen returns how many proposals this replica has armed.
func (r *Replica) ArmGen() uint64 { return r.armGen }

// LastWinArmGen returns the arm generation of the newest proposal that
// won its own ballot (0: none yet). LastWinArmGen() > g, for g a prior
// reading of ArmGen(), proves a proposal armed after that reading has
// decided — and therefore that this replica had learned every slot
// decided before the reading (it arms only at its first unlearned slot,
// and a slot already decided can only be adopted, never won).
func (r *Replica) LastWinArmGen() uint64 { return r.lastWinArmGen }

// Noops returns how many no-op barrier slots this replica has learned.
func (r *Replica) Noops() int { return r.noops }

// pendingLen returns the number of queued-but-uncommitted commands.
func (r *Replica) pendingLen() int { return len(r.pending) - r.pendingHead }

// pendingAt returns the i-th queued command (0 is the oldest).
func (r *Replica) pendingAt(i int) uint32 { return r.pending[r.pendingHead+i] }

// popPending drops the oldest queued command.
func (r *Replica) popPending() {
	r.pendingHead++
	if r.pendingHead == len(r.pending) {
		r.pending = r.pending[:0]
		r.pendingHead = 0
	}
}

// clearPending empties the queue, keeping its storage.
func (r *Replica) clearPending() {
	r.pending = r.pending[:0]
	r.pendingHead = 0
}

// Committed returns a copy of the replica's retained committed command
// tail in log order (shared across all replicas by consensus slot
// agreement), with batch slots flattened into their constituent commands
// and checkpoint slots elided. On a non-recycling log this is the full
// history; on a recycling log it is the commands since the newest
// checkpoint the state machine had fully applied (CommittedBase counts
// the summarized prefix).
func (r *Replica) Committed() []uint32 {
	return append([]uint32(nil), r.committed...)
}

// CommittedLen returns the length of the whole committed command stream,
// including the prefix summarized away by checkpoints.
func (r *Replica) CommittedLen() int { return r.committedBase + len(r.committed) }

// CommittedBase returns how many committed commands have been summarized
// into checkpoints and are no longer retained individually (0 on a
// non-recycling log).
func (r *Replica) CommittedBase() int { return r.committedBase }

// SlotsDecided returns how many log slots this replica has passed —
// learned in order or skipped by installing a snapshot. On an unbatched
// log this equals CommittedLen plus the checkpoint slots; on a batched
// log the committed stream can be up to MaxBatch times longer.
func (r *Replica) SlotsDecided() int { return r.slotsDecided }

// LogFull reports whether the log can commit no further commands through
// this replica: every slot of a non-recycling log has been decided and
// learned. A recycling log never fills — sealed slots are reclaimed — so
// LogFull is then always false; see WindowFull for the transient
// backpressure condition.
func (r *Replica) LogFull() bool {
	return !r.log.Recycling() && r.slotsDecided >= len(r.log.ring)
}

// WindowFull reports whether the replica has caught up to the end of the
// recycling window and must wait for a checkpoint to be quorum-acked
// before more slots can decide. Unlike LogFull this is transient: the
// window slides as soon as the acks land.
func (r *Replica) WindowFull() bool {
	return r.log.Recycling() && r.slotsDecided >= r.log.Base()+len(r.log.ring)
}

// Pending returns the number of commands still waiting for commit.
func (r *Replica) Pending() int { return r.pendingLen() }

// Checkpoints returns how many checkpoints this replica has passed
// (learned in order or installed).
func (r *Replica) Checkpoints() int { return r.ckptSeen }

// SnapshotInstalls returns how many of those checkpoints were passed by
// installing a published snapshot — the lagging-replica catch-up path —
// rather than by replaying the sealed slots.
func (r *Replica) SnapshotInstalls() int { return r.installs }

// DropGeneration returns how many times this replica's pending queue has
// been dropped (DropPending). A writer that cached the generation at
// submit time can detect an unobserved leadership flap — and therefore
// the loss of its queued command — with one comparison instead of
// scanning the queue.
func (r *Replica) DropGeneration() uint64 { return r.dropGen }

// checkpointDue reports whether the leader should seal now: ckptEvery
// slots have decided since the last seal (or since birth) and the state
// machine hooks needed to render a snapshot are attached.
func (r *Replica) checkpointDue() bool {
	return r.log.ckptEvery > 0 && r.snap != nil &&
		r.slotsDecided-(r.lastSealSlot+1) >= r.log.ckptEvery
}

// Step advances the replica: learn the next slot if decided, otherwise
// propose for it when leader — a checkpoint when due, else the oldest
// pending command or a batch. A replica whose next slot was recycled
// installs the latest snapshot instead; one that has caught up to the end
// of the window tries to slide it forward.
func (r *Replica) Step(now vclock.Time) {
	slot := r.slotsDecided
	inst := r.cachedInst
	if inst == nil || r.cachedSlot != slot {
		var st slotStatus
		inst, st = r.log.instance(slot)
		switch st {
		case slotRecycled:
			r.cachedInst, r.cachedSlot = nil, -1
			r.installLatestSnapshot()
			return
		case slotAhead:
			// Non-recycling: the log is permanently full. Recycling: the
			// window is exhausted until a checkpoint gathers its quorum of
			// acks; re-check them now so the window slides as soon as it
			// can.
			r.cachedInst, r.cachedSlot = nil, -1
			if r.log.Recycling() {
				r.maybeAdvanceWindow()
			}
			return
		}
		r.cachedInst, r.cachedSlot = inst, slot
	}
	// Learn: any replica's decision register settles the slot.
	if v, ok := inst.readDecision(r.id, r.decRow); ok {
		r.commitSlot(v)
		return
	}
	if r.omega() != r.id || (r.pendingLen() == 0 && !r.checkpointDue()) {
		return
	}
	if r.prop == nil || r.propSlot != slot {
		// The authority gate sits exactly at arming: an in-flight proposal
		// (below) keeps stepping after authority lapses, but no NEW
		// proposal — command, batch, checkpoint or barrier — arms without
		// it. This is what bounds a deposed leader to at most one straggler
		// commit, which the successor's catch-up barrier fences.
		if r.authority != nil && !r.authority(now) {
			return
		}
		input, ok := r.proposal()
		if !ok {
			return
		}
		if input == NoValue {
			// Only reachable with a NoValue command, which Submit's
			// contract excludes; drop it rather than wedge the log.
			r.popPending()
			return
		}
		if r.prop == nil {
			p, err := NewProposer(inst, r.id, input, r.omega)
			if err != nil {
				r.popPending()
				return
			}
			r.prop = p
		} else {
			r.prop.reset(inst, input)
		}
		r.propSlot = slot
		r.armGen++
		r.curArmGen = r.armGen
	}
	r.prop.Step(now)
	if v, ok := r.prop.Decided(); ok {
		if r.prop.WonBallot() {
			r.lastWinArmGen = r.curArmGen
		}
		r.commitSlot(v)
	}
}

// proposal picks what to run consensus on for the next slot: a freshly
// published checkpoint descriptor when a seal is due, the oldest pending
// command, or — when the log is batched, at least two commands are
// pending and the batch areas have room — a freshly published batch
// descriptor covering up to MaxBatch of them. ok is false when there is
// nothing proposable (a due checkpoint could not publish and nothing is
// pending).
func (r *Replica) proposal() (input uint32, ok bool) {
	if r.checkpointDue() {
		if desc, ok := r.publishCkpt(); ok {
			return desc, true
		}
	}
	if r.pendingLen() == 0 {
		return 0, false
	}
	k := r.pendingLen()
	if k > r.log.maxBatch {
		k = r.log.maxBatch
	}
	if r.log.ReservesTopRow() {
		// A queued barrier proposes as itself, never inside a batch (batch
		// data words are commands; a barrier is not). One at the head goes
		// out now; one further back truncates the batch in front of it.
		for i := 0; i < k; i++ {
			if r.pendingAt(i) == NoopBarrier {
				if i == 0 {
					return NoopBarrier, true
				}
				k = i
				break
			}
		}
	}
	if k < 2 {
		return r.pendingAt(0), true
	}
	desc, published := r.publishBatch(r.pending[r.pendingHead : r.pendingHead+k])
	if !published {
		return r.pendingAt(0), true
	}
	return desc, true
}

// reclaimPubsLocked pops the spent head publications of a fifo: those
// whose slot fell behind the recycled window (never resolvable again) and
// — keepLatest aside — returns the surviving list plus the data words
// freed. Only recycling logs reclaim; a non-recycling log keeps every
// publication forever, preserving the fixed-capacity semantics. Callers
// hold log.mu.
func (r *Replica) reclaimPubsLocked(pubs []pub, keepLatest int) ([]pub, int) {
	if !r.log.Recycling() {
		return pubs, 0
	}
	freed := 0
	for len(pubs) > 0 && pubs[0].slot < r.log.base && pubs[0].seq != keepLatest {
		freed += pubs[0].words
		pubs = pubs[1:]
	}
	return pubs, freed
}

// dropDeadPub removes a publication whose slot just decided a different
// value: the descriptor can never be decided anymore (a publication's
// BALINP write exists only in its own slot's instance), so on a recycling
// log its area is immediately reusable. This is what keeps leadership
// churn from permanently burning area capacity. The dead publication is
// always the newest one (a replica publishes at most once per slot and
// only for its first undecided slot), so the pop rewinds the ring
// cursors exactly, keeping the in-flight sequence and data ranges
// contiguous — which is what guarantees a fresh sequence number never
// collides with a live publication.
func (r *Replica) dropDeadPub(slot int, decided uint32) {
	if !r.log.Recycling() {
		return
	}
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	if n := len(r.batchPubs); n > 0 && r.batchPubs[n-1].slot == slot && r.batchPubs[n-1].desc != decided {
		p := r.batchPubs[n-1]
		dataCap := len(r.log.data[r.id])
		r.dataUsed -= p.words
		r.dataOff = (r.dataOff - p.words + dataCap) % dataCap
		r.nextBatchSeq--
		r.batchPubs = r.batchPubs[:n-1]
	}
	if n := len(r.ckptPubs); n > 0 && r.ckptPubs[n-1].slot == slot && r.ckptPubs[n-1].desc != decided {
		p := r.ckptPubs[n-1]
		r.log.freeAreaLocked(r.id, r.log.snaps[r.id][p.seq])
		delete(r.log.snaps[r.id], p.seq)
		r.nextCkptSeq--
		r.ckptPubs = r.ckptPubs[:n-1]
	}
}

// publishBatch writes cmds into the replica's batch area and returns the
// descriptor naming the publication. The data words are written before
// the header, and publishBatch returns before the descriptor is proposed,
// so by the time any replica can learn the descriptor the publication is
// complete and immutable (single-writer registers, linearizable
// substrate). ok is false when the header or data area is exhausted; the
// caller then proposes a plain command instead.
func (r *Replica) publishBatch(cmds []uint32) (desc uint32, ok bool) {
	// Only a recycling log reclaims areas under readers, so only there is
	// the window lock needed to fence publication against resolution.
	if r.log.Recycling() {
		r.log.mu.Lock()
		defer r.log.mu.Unlock()
	}
	var freed int
	r.batchPubs, freed = r.reclaimPubsLocked(r.batchPubs, -1)
	r.dataUsed -= freed
	hdrCap := len(r.log.hdr[r.id])
	dataCap := len(r.log.data[r.id])
	words := (len(cmds) + 1) / 2
	if len(r.batchPubs) >= hdrCap || r.dataUsed+words > dataCap {
		return 0, false
	}
	seq := r.nextBatchSeq % hdrCap
	start := r.dataOff % dataCap
	for w := 0; w < words; w++ {
		word := uint64(cmds[2*w])
		if 2*w+1 < len(cmds) {
			word |= uint64(cmds[2*w+1]) << 32
		}
		r.log.data[r.id][(start+w)%dataCap].Write(r.id, word)
	}
	r.log.hdr[r.id][seq].Write(r.id, packBatchHdr(start, len(cmds)))
	desc = encodeBatchDesc(r.id, seq)
	r.batchPubs = append(r.batchPubs, pub{seq: seq, slot: r.slotsDecided, desc: desc, words: words})
	r.nextBatchSeq++
	r.dataOff = (start + words) % dataCap
	r.dataUsed += words
	return desc, true
}

// publishCkpt renders the state machine's snapshot of the committed
// prefix, publishes it into a fresh per-epoch snapshot area — data words,
// then the metadata, then the completion header, so the publication is
// complete and immutable before its descriptor can be proposed, let alone
// learned — and returns the checkpoint descriptor to propose for the
// current slot. ok is false when the sequence ring has no free slot.
func (r *Replica) publishCkpt() (desc uint32, ok bool) {
	entries := r.snap.SnapshotEntries()
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	var survivors []pub
	survivors, _ = r.reclaimPubsLocked(r.ckptPubs, r.selfLatestSeq)
	for _, p := range r.ckptPubs[:len(r.ckptPubs)-len(survivors)] {
		r.log.freeAreaLocked(r.id, r.log.snaps[r.id][p.seq])
		delete(r.log.snaps[r.id], p.seq)
	}
	r.ckptPubs = survivors
	if len(r.ckptPubs) >= ckptSeqCap {
		return 0, false
	}
	seq := r.nextCkptSeq % ckptSeqCap
	if _, taken := r.log.snaps[r.id][seq]; taken {
		// The ring slot is still in flight (pathological churn); skip
		// sealing this round rather than clobber a live publication.
		return 0, false
	}
	r.nextCkptSeq++
	words := (len(entries) + 1) / 2
	area := r.log.takeAreaLocked(r.id, words)
	for w := 0; w < words; w++ {
		word := uint64(entries[2*w])
		if 2*w+1 < len(entries) {
			word |= uint64(entries[2*w+1]) << 32
		}
		area.data[w].Write(r.id, word)
	}
	area.meta.Write(r.id, uint64(r.committedBase+len(r.committed)))
	area.hdr.Write(r.id, uint64(len(entries))+1)
	r.log.snaps[r.id][seq] = area
	desc = encodeCkptDesc(r.id, seq)
	r.ckptPubs = append(r.ckptPubs, pub{seq: seq, slot: r.slotsDecided, desc: desc})
	return desc, true
}

// resolveSlot expands the decided value of the given global slot: a plain
// command is itself, a batch descriptor is read back from the publisher's
// batch area, a checkpoint descriptor yields seal coordinates instead of
// commands. The publication was completed before the descriptor could be
// proposed, so every replica resolves the same descriptor to the same
// commands. ok is false when the slot was recycled out from under the
// learner mid-step (it will install a snapshot on a later step).
func (r *Replica) resolveSlot(slot int, v uint32) (cmds []uint32, sealPid, sealSeq int, isSeal, ok bool) {
	if r.log.Recycling() && isCkptDesc(v) {
		pid, seq := decodeCkptDesc(v)
		return nil, pid, seq, true, true
	}
	if !r.log.Batched() || !isDesc(v) {
		r.resolveBuf = append(r.resolveBuf[:0], v)
		return r.resolveBuf, 0, 0, false, true
	}
	pid, seq := decodeBatchDesc(v)
	// Resolution must exclude area reclamation, which only a recycling
	// log performs; a non-recycling log's publications are immutable
	// forever, exactly as before recycling existed.
	if r.log.Recycling() {
		r.log.mu.Lock()
		defer r.log.mu.Unlock()
		if slot < r.log.base {
			return nil, 0, 0, false, false
		}
	}
	dataCap := len(r.log.data[pid])
	start, count := unpackBatchHdr(r.log.hdr[pid][seq].Read(r.id))
	cmds = r.resolveBuf[:0]
	for w := 0; len(cmds) < count; w++ {
		word := r.log.data[pid][(start+w)%dataCap].Read(r.id)
		cmds = append(cmds, uint32(word))
		if len(cmds) < count {
			cmds = append(cmds, uint32(word>>32))
		}
	}
	r.resolveBuf = cmds
	return cmds, 0, 0, false, true
}

// commitSlot records slot r.slotsDecided as decided with value v,
// appending its resolved commands to the committed stream and popping the
// matching prefix of the pending queue (the decided commands, when they
// are this replica's own proposal). A decided checkpoint instead seals
// the prefix: the replica acknowledges it on the substrate, publishes the
// latest-checkpoint pointer, trims its retained history, and tries to
// slide the window.
func (r *Replica) commitSlot(v uint32) {
	slot := r.slotsDecided
	if r.log.ReservesTopRow() && v == NoopBarrier {
		// Barrier slots decide but append nothing. Pop a queued barrier at
		// the head (any decided barrier satisfies it — the fence property
		// is in who won the slot, not in whose no-op word it was), and
		// reclaim a dead publication of ours the barrier outran.
		r.slotsDecided++
		r.noops++
		if r.propSlot == slot {
			r.propSlot = -1
		}
		r.dropDeadPub(slot, v)
		if r.pendingLen() > 0 && r.pendingAt(0) == NoopBarrier {
			r.popPending()
		}
		return
	}
	cmds, sealPid, sealSeq, isSeal, ok := r.resolveSlot(slot, v)
	if !ok {
		// Recycled mid-learn: drop the memoized instance so the next step
		// re-classifies the slot and takes the snapshot-install path.
		r.cachedInst, r.cachedSlot = nil, -1
		return
	}
	r.slotsDecided++
	if r.propSlot == slot {
		// Disarm but keep the proposer object: the next led slot resets
		// it in place instead of allocating a fresh state machine.
		r.propSlot = -1
	}
	r.dropDeadPub(slot, v)
	if isSeal {
		r.applySeal(slot, sealPid, sealSeq)
		return
	}
	for _, c := range cmds {
		r.committed = append(r.committed, c)
		if r.pendingLen() > 0 && r.pendingAt(0) == c {
			r.popPending()
		}
	}
}

// applySeal processes a learned checkpoint decided at the given slot: the
// replica's own committed prefix is exactly the sealed one, so no
// snapshot read is needed — it acknowledges the seal, points lagging
// replicas at the publication, trims the retained command tail up to what
// its state machine has applied, and re-checks the ack quorum.
func (r *Replica) applySeal(slot, pid, seq int) {
	r.lastSealSlot = slot
	r.ckptSeen++
	if pid == r.id {
		r.selfLatestSeq = seq
	} else {
		r.selfLatestSeq = -1
	}
	r.log.ack[r.id].Write(r.id, uint64(slot)+1)
	r.log.ptr[r.id].Write(r.id, packCkptPtr(slot, pid, seq))
	if r.snap != nil {
		keep := r.committedBase + len(r.committed)
		if a := r.snap.AppliedLen(); a < keep {
			keep = a
		}
		if drop := keep - r.committedBase; drop > 0 {
			// Trim in place: the tail slides down over the sealed prefix,
			// keeping the array's capacity for the next window of commits.
			n := copy(r.committed, r.committed[drop:])
			r.committed = r.committed[:n]
			r.committedBase = keep
		}
	}
	r.maybeAdvanceWindow()
}

// maybeAdvanceWindow reads every replica's checkpoint ack register and
// slides the window up to the newest seal a majority has durably
// acknowledged. Any replica may observe the quorum and advance; the
// window state is monotone, so concurrent observers are harmless.
func (r *Replica) maybeAdvanceWindow() {
	if !r.log.Recycling() {
		return
	}
	acks := make([]int, r.log.N)
	for i := range acks {
		acks[i] = int(r.log.ack[i].Read(r.id))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(acks)))
	// acks[i] is 1 + sealed slot, i.e. directly the base candidate; the
	// (N/2+1)-th largest is the newest value a majority has reached.
	if q := acks[r.log.N/2]; q > 0 {
		r.log.advance(q)
	}
}

// installLatestSnapshot is the lagging-replica catch-up path: the
// replica's next slot was recycled, so it finds the newest checkpoint any
// process has published a pointer to, installs that snapshot into its
// state machine, and resumes learning right after the sealed prefix. The
// skipped commands are reflected in the installed state but are not
// individually retained (committedBase advances past them).
func (r *Replica) installLatestSnapshot() {
	if r.snap == nil {
		return // cannot install without state hooks; documented wedge
	}
	best := uint64(0)
	for i := 0; i < r.log.N; i++ {
		if v := r.log.ptr[i].Read(r.id); v > best {
			best = v
		}
	}
	if best == 0 {
		return
	}
	sealSlot, pid, seq := unpackCkptPtr(best)
	if sealSlot+1 <= r.slotsDecided {
		return // no newer checkpoint visible yet; retry on a later step
	}
	entries, committedLen, ok := r.log.readSnapshot(r.id, pid, seq)
	if !ok {
		return // publication raced away; a newer pointer will appear
	}
	r.snap.InstallSnapshot(entries, committedLen)
	r.slotsDecided = sealSlot + 1
	r.committed = r.committed[:0]
	r.committedBase = committedLen
	r.lastSealSlot = sealSlot
	r.ckptSeen++
	r.installs++
	if pid == r.id {
		r.selfLatestSeq = seq
	} else {
		r.selfLatestSeq = -1
	}
	r.propSlot = -1
	r.log.ack[r.id].Write(r.id, uint64(sealSlot)+1)
	r.log.ptr[r.id].Write(r.id, best)
	r.maybeAdvanceWindow()
}
