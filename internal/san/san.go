// Package san simulates the deployment the paper motivates in its
// introduction: "distributed systems made up of computers that communicate
// through a network of attached disks ... a storage area network (SAN)
// that implements a shared memory abstraction" (paper Section 1, with
// references [1], [4], [10], [18]).
//
// We do not have a hardware SAN; the substitution (recorded in DESIGN.md)
// is a set of simulated network-attached disks with seeded, heavy-tailed
// access latency and crash faults. A shared register is replicated across
// all disks and accessed with the classic single-writer quorum discipline:
//
//   - Write: tag the value with the writer's monotone sequence number,
//     write to every disk, return once a majority acknowledged.
//   - Read: read from a majority, return the value with the highest
//     sequence number.
//
// With a single writer per register (the paper's 1WnR model) this yields
// regular register semantics, which suffices for the Omega algorithms: the
// proofs only need that a read sees either the latest completed write or
// the value of an overlapping one, both of which keep the PROGRESS /
// handshake freshness arguments intact. Disk crashes below a majority are
// masked; if too many disks fail, register accesses panic ErrNoQuorum.
//
// DiskMem implements shmem.Mem, so the core algorithms run over the SAN
// unchanged — this is the live-runtime (goroutine) substrate used by the
// sanpaxos example and the T6 experiment.
package san

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"omegasm/internal/shmem"
)

// ErrNoQuorum is the value a register access panics with when a majority
// of disks is unreachable; nothing recovers it, so on a live scheduler
// goroutine it kills the host program (ROADMAP item 8 would make the
// access block instead). The experiments keep disk failures below a
// majority; breaching it is a configuration error.
var ErrNoQuorum = errors.New("san: majority of disks unreachable")

// ErrCrashed is returned by operations on a crashed disk.
var ErrCrashed = errors.New("san: disk crashed")

// Latency draws per-operation disk latencies.
type Latency struct {
	Base   time.Duration // minimum latency
	Jitter time.Duration // uniform extra
	SpikeP float64       // probability of a spike
	Spike  time.Duration // spike magnitude (uniform up to)
}

func (l Latency) draw(rng *rand.Rand) time.Duration {
	d := l.Base
	if l.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(l.Jitter) + 1))
	}
	if l.SpikeP > 0 && rng.Float64() < l.SpikeP {
		d += time.Duration(rng.Int63n(int64(l.Spike) + 1))
	}
	return d
}

// Disk is one simulated network-attached disk: a block store keyed by
// register name, with latency and crash faults.
type Disk struct {
	mu      sync.Mutex
	blocks  map[string]block
	crashed bool
	lat     Latency
	rng     *rand.Rand
	rngMu   sync.Mutex

	// Gray-failure model (gray.go); guarded by rngMu with the rng it draws
	// from. grayOn distinguishes "no model" from a zero-valued one.
	gray   GrayFault
	grayOn bool

	// Pipelined access path (see pipe.go): a lazily started pump
	// goroutine serving a bounded FIFO request window. pipeMu orders
	// submissions against Close; ReadBlock/WriteBlock bypass the pipe.
	pipeMu     sync.RWMutex
	pipeOnce   sync.Once
	reqs       chan *pipeOp
	pipeClosed bool
}

type block struct {
	seq uint64
	val uint64
	// The previous version, kept so a gray disk can serve stale reads;
	// hasPrev distinguishes a real predecessor from the zero block.
	prevSeq uint64
	prevVal uint64
	hasPrev bool
}

// NewDisk creates a disk with the given latency model and seed.
func NewDisk(lat Latency, seed int64) *Disk {
	return &Disk{
		blocks: make(map[string]block),
		lat:    lat,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// draw samples one operation's latency from the disk's model, gray
// slow-down included.
func (d *Disk) draw() time.Duration {
	d.rngMu.Lock()
	dur := d.lat.draw(d.rng)
	if d.grayOn {
		dur += d.gray.Slow.draw(d.rng)
	}
	d.rngMu.Unlock()
	return dur
}

func (d *Disk) sleep() {
	if dur := d.draw(); dur > 0 {
		time.Sleep(dur)
	}
}

// Crash fails the disk permanently; subsequent operations error.
func (d *Disk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = true
}

// Crashed reports whether the disk has failed.
func (d *Disk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// ReadBlock returns the block's (seq, value), after the disk's latency.
func (d *Disk) ReadBlock(name string) (seq, val uint64, err error) {
	d.sleep()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, 0, ErrCrashed
	}
	b := d.blocks[name]
	if b.hasPrev && d.grayStaleRead() {
		return b.prevSeq, b.prevVal, nil
	}
	return b.seq, b.val, nil
}

// DeleteBlock frees the named block without latency (reclamation is a
// background bookkeeping action, not a quorum operation). Deleting on a
// crashed disk is a no-op. The name must never be written again: a
// re-created block would restart its sequence numbering.
func (d *Disk) DeleteBlock(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.crashed {
		delete(d.blocks, name)
	}
}

// WriteBlock stores (seq, value) if seq is newer, after the disk's
// latency. Stale writes are ignored, which makes retries idempotent.
func (d *Disk) WriteBlock(name string, seq, val uint64) error {
	d.sleep()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if d.grayDropWrite() {
		return nil // gray fault: acknowledged but never persisted
	}
	if b, ok := d.blocks[name]; !ok || seq > b.seq {
		d.blocks[name] = block{seq: seq, val: val, prevSeq: b.seq, prevVal: b.val, hasPrev: ok}
	}
	return nil
}

// DiskMem is a shared memory replicated over a set of disks.
type DiskMem struct {
	disks  []*Disk
	census *shmem.Census
	count  bool
}

var _ shmem.Mem = (*DiskMem)(nil)

// NewDiskMem builds a replicated memory for n processes over the disks,
// attributing every access in the census. len(disks) should be odd; a
// majority must stay alive.
func NewDiskMem(n int, disks []*Disk) (*DiskMem, error) {
	return newDiskMem(n, disks, true)
}

// NewUncountedDiskMem is NewDiskMem without census instrumentation: no
// per-register tracking and no per-access attribution. A recycling log
// allocates and discards registers continuously, so uninstrumented
// clusters must not pay a global census mutex and map churn per slot.
func NewUncountedDiskMem(n int, disks []*Disk) (*DiskMem, error) {
	return newDiskMem(n, disks, false)
}

func newDiskMem(n int, disks []*Disk, count bool) (*DiskMem, error) {
	if len(disks) < 1 {
		return nil, fmt.Errorf("san: need at least one disk")
	}
	return &DiskMem{
		disks:  disks,
		census: shmem.NewCensus(n, nil),
		count:  count,
	}, nil
}

// Word allocates a disk-replicated register. (The display name is always
// materialized — unlike atomic memory it doubles as the block address on
// every disk — but only counted memories track it in the census.)
func (m *DiskMem) Word(owner int, class string, idx ...int) shmem.Reg {
	name := shmem.RegName(class, idx...)
	r := &sanReg{
		blk:   &sanBlock{mem: m, names: []string{name}, n: 1},
		owner: int32(owner),
	}
	if m.count {
		r.stats = m.census.Track(class, name, owner)
	}
	return r
}

// WordRowBlock bulk-allocates rows CLASS[tag0+j][0..n-1] (register i of
// each row owned by process i) over one contiguous backing array — the
// consensus-instance shape a recycling log re-allocates per window
// advance. Block names are still materialized eagerly (they address the
// disks) but the register objects cost a handful of allocations per block.
// The name list doubles as the rows' scatter-gather request (ReadRow).
func (m *DiskMem) WordRowBlock(class string, tag0, k, n int) [][]shmem.Reg {
	blk := &sanBlock{mem: m, names: make([]string, k*n), n: n}
	backing := make([]sanReg, k*n)
	flat := make([]shmem.Reg, k*n)
	rows := make([][]shmem.Reg, k)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			r := &backing[j*n+i]
			r.blk = blk
			r.idx = int32(j*n + i)
			r.owner = int32(i)
			blk.names[r.idx] = shmem.RegName(class, tag0+j, i)
			if m.count {
				r.stats = m.census.Track(class, blk.names[r.idx], i)
			}
			flat[j*n+i] = r
		}
		rows[j] = flat[j*n : (j+1)*n : (j+1)*n]
	}
	return rows
}

var _ shmem.RowAllocator = (*DiskMem)(nil)

// ReadRow implements shmem.RowReader: one scatter-gather request per disk
// (pipe.go's gatherQuorum, as Disk Paxos reads its blocks) instead of one
// quorum round trip per register. Every per-register property of
// sanReg.Read holds: each register is read from a majority and folded
// into its own monotone cache, the census notes one read per register, a
// reclaimed register reads 0 (reads never create blocks, so a dead name
// in the request re-creates nothing), and a lost quorum panics. regs must
// be whole WordRowBlock rows of this memory, one after the other;
// anything else is read register by register.
func (m *DiskMem) ReadRow(pid int, regs []shmem.Reg, out []uint64) {
	var few [4][]string // a consensus instance's rows; more spill to the heap
	windows, live := m.rowWindows(regs, few[:0])
	if windows == nil {
		for i, r := range regs {
			out[i] = r.Read(pid)
		}
		return
	}
	out = out[:len(regs)]
	for i := range out {
		out[i] = 0
	}
	if !live {
		return // every register reclaimed: nothing to read
	}
	sp, _ := seqScratch.Get().(*[]uint64)
	if sp == nil {
		sp = new([]uint64)
	}
	seqs := append((*sp)[:0], out...) // len(regs) zeros
	if err := gatherQuorum(m.disks, windows, seqs, out); err != nil {
		panic(ErrNoQuorum)
	}
	for i := range regs {
		out[i] = regs[i].(*sanReg).observe(pid, seqs[i], out[i])
	}
	*sp = seqs
	seqScratch.Put(sp)
}

var _ shmem.RowReader = (*DiskMem)(nil)

// seqScratch recycles ReadRow's per-call sequence buffers: a row is read
// by several processes at once, so the scratch cannot live in the row.
var seqScratch sync.Pool

// rowWindows appends to windows the scatter-gather name list of each row
// in regs when regs is whole WordRowBlock rows of this memory — nil
// otherwise — and reports whether any register is still live. Each list
// is a window of its block's name array, immutable for the life of the
// block: straggler disks read a request's names after the quorum call has
// returned (see gatherQuorum), so it must never be a reused scratch
// buffer.
func (m *DiskMem) rowWindows(regs []shmem.Reg, windows [][]string) (_ [][]string, live bool) {
	for len(regs) > 0 {
		first, ok := regs[0].(*sanReg)
		if !ok || first.blk.mem != m || len(regs) < first.blk.n || int(first.idx)%first.blk.n != 0 {
			return nil, false
		}
		n := first.blk.n
		for i, reg := range regs[:n] {
			r, ok := reg.(*sanReg)
			if !ok || r.blk != first.blk || r.idx != first.idx+int32(i) {
				return nil, false
			}
			live = live || !r.dead.Load()
		}
		lo := int(first.idx)
		windows = append(windows, first.blk.names[lo:lo+n:lo+n])
		regs = regs[n:]
	}
	return windows, live
}

// Census returns the (process-level) access census.
func (m *DiskMem) Census() *shmem.Census { return m.census }

// Discard frees a dead register's disk blocks on every disk and drops
// its census accounting — the sealed-slot reclamation a recycling log
// performs once a checkpoint makes the register unreachable. The name is
// never allocated again, so block deletion cannot alias a live register.
// The register object itself is tombstoned: a stale holder that races
// the reclamation (a lagging replica mid-step on a just-recycled slot)
// gets no-op writes and zero reads instead of re-creating the deleted
// blocks under a dead name.
func (m *DiskMem) Discard(reg shmem.Reg) {
	if r, ok := reg.(*sanReg); ok {
		r.dead.Store(true)
	}
	for _, d := range m.disks {
		d.DeleteBlock(reg.Name())
	}
	if m.count {
		m.census.Forget(reg.Name())
	}
}

var _ shmem.Discarder = (*DiskMem)(nil)

// Quorum returns the majority size.
func (m *DiskMem) Quorum() int { return len(m.disks)/2 + 1 }

// sanBlock is the identity the registers of one allocation call share:
// the memory and their disk block names, flat by (row, process) —
// names[j*n:(j+1)*n] is row j. Written only while the block is being
// built. Keeping it out of the registers keeps a register at 72 bytes; a
// default log holds nine thousand of them.
type sanBlock struct {
	mem   *DiskMem
	names []string
	n     int // row width (1 for a register allocated alone)
}

// sanReg is one replicated register. The single writer's sequence number
// lives in writerSeq; readers never write.
type sanReg struct {
	blk       *sanBlock
	idx       int32 // position in blk.names
	owner     int32
	stats     *shmem.RegStats
	writerSeq uint64 // guarded by seqMu; only the owner increments
	seqMu     sync.Mutex

	// readCache holds the highest (seq, val) this register handle has
	// ever returned, so reads are monotone per handle even if quorums
	// answer out of order.
	cacheMu   sync.Mutex
	cacheSeq  uint64
	cacheVal  uint64
	cacheInit bool

	// dead is set by DiskMem.Discard: the register was reclaimed and its
	// blocks deleted. Stale holders' accesses become no-ops so they
	// cannot re-create blocks under the dead name.
	dead atomic.Bool
}

var _ shmem.Reg = (*sanReg)(nil)

func (r *sanReg) Owner() int   { return int(r.owner) }
func (r *sanReg) Name() string { return r.blk.names[r.idx] }

// Read implements shmem.Reg: majority read, highest sequence wins,
// served through the per-disk pipelines (pipe.go) so a hot register
// neither spawns goroutines nor allocates per access. It panics with
// ErrNoQuorum if a majority of disks has crashed — the register
// abstraction has no error channel, and losing the quorum is a
// configuration breach in every experiment that uses the SAN.
func (r *sanReg) Read(pid int) uint64 {
	if r.dead.Load() {
		return 0 // reclaimed register: nothing to read
	}
	bestSeq, bestVal, err := readQuorum(r.blk.mem.disks, r.Name())
	if err != nil {
		panic(ErrNoQuorum)
	}
	return r.observe(pid, bestSeq, bestVal)
}

// observe completes a read by pid whose quorum answered (seq, val): a
// reclaimed register reads 0, anything else is folded into the handle's
// monotone cache and attributed in the census. Shared by Read and
// DiskMem.ReadRow.
func (r *sanReg) observe(pid int, seq, val uint64) uint64 {
	if r.dead.Load() {
		return 0
	}
	r.cacheMu.Lock()
	if !r.cacheInit || seq > r.cacheSeq {
		r.cacheSeq, r.cacheVal, r.cacheInit = seq, val, true
	} else {
		val = r.cacheVal
	}
	r.cacheMu.Unlock()
	if r.stats != nil {
		r.blk.mem.census.NoteRead(r.stats, pid)
	}
	return val
}

// Write implements shmem.Reg: tag with the next sequence number, write to
// all disks, return after a majority acknowledged. Panics with ErrNoQuorum
// when a majority of disks has crashed (see Read).
func (r *sanReg) Write(pid int, v uint64) {
	if r.Owner() != shmem.MultiWriter && pid != r.Owner() {
		panic(fmt.Sprintf("san: process %d wrote 1WnR register %s owned by %d", pid, r.Name(), r.owner))
	}
	if r.dead.Load() {
		return // reclaimed register: never re-create its deleted blocks
	}
	r.seqMu.Lock()
	r.writerSeq++
	seq := r.writerSeq
	r.seqMu.Unlock()

	if err := writeQuorum(r.blk.mem.disks, r.Name(), seq, v); err != nil {
		panic(ErrNoQuorum)
	}
	if r.stats != nil {
		r.blk.mem.census.NoteWrite(r.stats, pid, v)
	}
}
