// Package consensus implements Omega-based consensus over 1WnR atomic
// registers, closing the loop on the paper's motivation: the eventual
// leader oracle is the weakest failure detector for solving consensus in
// crash-prone asynchronous shared-memory systems (paper references [19],
// [6]), and the paper's own Section 1 points at Paxos-style protocols
// ([9] Gafni & Lamport's Disk Paxos, [16] Lamport's Paxos) as the
// canonical consumers.
//
// The protocol here is single-memory Disk Paxos: each process owns one
// "block" of registers it alone writes (1WnR — the paper's model),
// consisting of a ballot-promise register MBAL[i] and a packed
// (bal, value) register BALINP[i]. Safety is that of Paxos and holds under
// full asynchrony and any number of crashes below n; liveness needs a
// single eventual proposer, which the Omega oracle provides.
//
// Splitting the Disk Paxos block into two registers is safe because:
// phase 1 writes only MBAL; phase 2 writes only BALINP (mbal is already
// the phase's ballot) and then re-checks every MBAL. For two competing
// ballots b < b', either b' phase-1 read sees b's BALINP write (and adopts
// its value), or b's phase-2 read sees b' in MBAL (and aborts) — the
// standard Paxos intersection argument with single-register granularity.
//
// The state machines take micro-steps (one phase action per Step call) so
// they run under the deterministic simulator and on live goroutines alike.
//
// Every micro-step begins with one read access. A process that is not
// about to run a phase action — a follower, or a leader with nothing to
// propose — reads only the DEC row. A process that is about to (Omega
// names it, and it has something to propose) reads the slot's three rows,
// MBAL, BALINP and DEC, in one shmem.ReadRow, which a memory with
// expensive accesses serves as one batched round trip: the DEC part
// settles the slot if anyone decided it, and the MBAL and BALINP part is
// the scan the phase action begins with (the pre-ballot scan for the
// highest ballot seen, phase 1 or phase 2), so the action itself reads
// nothing and ends in at most one write. An uncontended slot is three
// read accesses and three writes. This needs nothing a separate scan did
// not already need:
//   - Each scan still starts after the phase's own write returned: that
//     write is the previous micro-step's, and micro-steps of one process
//     are sequential. The argument above is per register — each one is
//     read from the memory (on the SAN: from a majority of disks) after
//     the write — and asks for no atomicity across registers, which the
//     register-by-register loop never provided either.
//   - Safety never reads DEC. The poll only lets a follower or a demoted
//     proposer stop early, so reading DEC in the same access as the scan
//     observes nothing a poll followed by a separate scan could not.
package consensus

import (
	"fmt"

	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// Register class names.
const (
	ClassMBal   = "MBAL"
	ClassBalInp = "BALINP"
	ClassDec    = "DEC"
)

// NoValue is returned by Decided when no decision is known yet.
const NoValue = uint32(0xFFFFFFFF)

// Instance is the shared memory of one consensus instance: three rows of
// N registers, register i of each owned by process i.
//
//	MBAL[i]    highest ballot i entered
//	BALINP[i]  (bal<<32 | value) i last accepted
//	DEC[i]     (1<<32 | value) once i decided
type Instance struct {
	// N is the number of participating processes.
	N int
	// mem is where the rows live (for shmem.ReadRow) and regs holds them
	// end to end — MBAL, BALINP, DEC — so a decision poll (the third row)
	// and a poll that is also a phase's scan (all three) are one ReadRow
	// each.
	mem  shmem.Mem
	regs []shmem.Reg
}

func (inst *Instance) mbal(i int) shmem.Reg   { return inst.regs[i] }
func (inst *Instance) balInp(i int) shmem.Reg { return inst.regs[inst.N+i] }
func (inst *Instance) dec(i int) shmem.Reg    { return inst.regs[2*inst.N+i] }

// NewInstance allocates the registers of one consensus instance. tag
// distinguishes instances sharing one memory (e.g. log slots).
func NewInstance(mem shmem.Mem, n int, tag int) *Instance {
	return &NewInstances(mem, n, tag, 1)[0]
}

// NewInstances allocates the instances of tags [tag0, tag0+k) in bulk,
// one contiguous backing array per register class (on memories with a
// bulk path — see shmem.RowAllocator). A recycling log re-instantiates
// a whole checkpoint interval of slots per window advance at commit
// rate, so instance allocation is steady-state commit-path overhead:
// bulk-allocating turns O(n·k) small objects into O(1) arrays per
// advance. The instances stay fresh objects per epoch — the returned
// block aliases nothing older — so the log's stale-reader argument
// (sealed epochs' registers become unreachable, never reused) is
// untouched.
func NewInstances(mem shmem.Mem, n, tag0, k int) []Instance {
	mb := shmem.WordRowBlock(mem, ClassMBal, tag0, k, n)
	bi := shmem.WordRowBlock(mem, ClassBalInp, tag0, k, n)
	dec := shmem.WordRowBlock(mem, ClassDec, tag0, k, n)
	insts := make([]Instance, k)
	regs := make([]shmem.Reg, 0, 3*k*n)
	for j := range insts {
		lo := len(regs)
		regs = append(append(append(regs, mb[j]...), bi[j]...), dec[j]...)
		insts[j] = Instance{N: n, mem: mem, regs: regs[lo:len(regs):len(regs)]}
	}
	return insts
}

func packBalInp(bal uint32, v uint32) uint64 { return uint64(bal)<<32 | uint64(v) }
func unpackBalInp(w uint64) (bal uint32, v uint32) {
	return uint32(w >> 32), uint32(w)
}
func packDec(v uint32) uint64 { return 1<<32 | uint64(v) }
func unpackDec(w uint64) (v uint32, ok bool) {
	return uint32(w), w>>32 != 0
}

// poll reads the instance's rows on behalf of pid into row, a buffer of
// 3N words laid out like regs, and returns the first published decision
// in register order. With scan set, the MBAL and BALINP rows ride the same
// shmem.ReadRow as the DEC row and are left in row[:2N] for the phase
// action (advance) to consume; otherwise only the DEC row is read. The
// poll runs every micro-step, so it must not allocate.
func (inst *Instance) poll(pid int, row []uint64, scan bool) (v uint32, ok bool) {
	n := inst.N
	lo := 2 * n
	if scan {
		lo = 0
	}
	shmem.ReadRow(inst.mem, pid, inst.regs[lo:], row[lo:3*n])
	for _, w := range row[2*n : 3*n] {
		if v, ok := unpackDec(w); ok {
			return v, true
		}
	}
	return 0, false
}

type phase int

const (
	phaseFollow phase = iota + 1 // not proposing: poll DEC
	phase1                       // wrote MBAL, about to scan
	phase2                       // wrote BALINP, about to verify
	phaseDone
)

// Proposer is one process's state machine for one consensus instance.
//
// Omega injects liveness: the proposer only advances ballots while the
// oracle names it leader; everyone else follows by polling the decision
// registers. Safety never depends on the oracle's output.
type Proposer struct {
	inst  *Instance
	id    int
	omega func() int // the leader oracle (task T1 of the core algorithms)

	input   uint32
	phase   phase
	ballot  uint32
	chosen  uint32 // value carried into phase 2
	decided bool
	value   uint32
	rounds  int // ballot attempts, for the experiment's cost metric
	// wonBallot records that this proposer's OWN phase 2 completed — it
	// wrote the decision under its own ballot rather than adopting one it
	// read. A won ballot proves the proposer observed every lower ballot's
	// outcome (the phase-1/phase-2 intersection), which is what the
	// lease catch-up barrier and quorum reads need; an adopted decision
	// proves nothing about the adopter.
	wonBallot bool

	// row is the buffer Step's poll lands in (see Instance.poll), kept
	// across slots (reset) so the steady-state commit path allocates
	// nothing. A Replica polls into its own buffer and hands it to
	// advance.
	row []uint64
}

// NewProposer creates the state machine of process id proposing input on
// inst, with omega as its leader oracle.
func NewProposer(inst *Instance, id int, input uint32, omega func() int) (*Proposer, error) {
	if input == NoValue {
		return nil, fmt.Errorf("consensus: input %#x is the reserved NoValue sentinel", input)
	}
	if omega == nil {
		return nil, fmt.Errorf("consensus: nil omega oracle")
	}
	return &Proposer{
		inst:  inst,
		id:    id,
		omega: omega,
		input: input,
		phase: phaseFollow,
		row:   make([]uint64, 3*inst.N),
	}, nil
}

// reset re-arms the state machine for a new instance and input, reusing
// the allocation: a replica would otherwise construct one proposer per
// slot it leads, which is the dominant per-commit heap allocation on the
// steady-state write path. The caller guarantees input is not NoValue
// (the same contract NewProposer validates) and that inst has as many
// processes as the instance the proposer was built on (row is sized once).
func (p *Proposer) reset(inst *Instance, input uint32) {
	p.inst = inst
	p.input = input
	p.phase = phaseFollow
	p.ballot = 0
	p.chosen = 0
	p.decided = false
	p.value = 0
	p.rounds = 0
	p.wonBallot = false
}

// WonBallot reports whether the decided value was decided by this
// proposer's own completed phase 2 (meaningful once Decided returns
// true; false when the decision was adopted from another proposer).
func (p *Proposer) WonBallot() bool { return p.wonBallot }

// Decided returns the decided value, or (NoValue, false).
func (p *Proposer) Decided() (uint32, bool) {
	if !p.decided {
		return NoValue, false
	}
	return p.value, true
}

// Rounds returns the number of ballots this proposer started.
func (p *Proposer) Rounds() int { return p.rounds }

// Step advances the state machine by one phase action.
func (p *Proposer) Step(vclock.Time) {
	if p.decided {
		return
	}
	// Adopt any published decision first: followers terminate this way,
	// and a demoted proposer abandons its ballot. Omega is asked once, so
	// a proposer that will act reads its scan in the poll's access.
	lead := p.omega() == p.id
	if v, ok := p.inst.poll(p.id, p.row, lead); ok {
		p.decide(v)
		return
	}
	if !lead {
		p.phase = phaseFollow
		return
	}
	p.advance(p.row)
}

// advance is the phase action of a micro-step whose poll, taken while
// Omega named p, found the slot undecided and left the slot's MBAL and
// BALINP rows in row[:2N] (Instance.poll with scan set). Every phase
// begins with that scan, so the action reads nothing more and ends in at
// most one write. The proposer must be undecided: a Replica commits a
// decided proposer's slot and re-arms it for the next one.
func (p *Proposer) advance(row []uint64) {
	maxM, maxBal, maxVal := p.scan(row)
	switch p.phase {
	case phaseFollow:
		p.startBallot(maxM)
	case phase1:
		if maxM > p.ballot {
			p.startBallot(maxM)
			return
		}
		p.chosen = p.input
		if maxBal > 0 {
			p.chosen = maxVal
		}
		p.inst.balInp(p.id).Write(p.id, packBalInp(p.ballot, p.chosen))
		p.phase = phase2
	case phase2:
		if maxM > p.ballot {
			p.startBallot(maxM)
			return
		}
		p.wonBallot = true
		p.decide(p.chosen) // publishes DEC[id]
	}
}

func (p *Proposer) decide(v uint32) {
	p.decided = true
	p.value = v
	p.phase = phaseDone
	// Publish (a winner) or republish (an adopter) so laggards can learn
	// from any register of the row.
	p.inst.dec(p.id).Write(p.id, packDec(v))
}

// startBallot picks the next ballot above floor that is congruent to this
// process (ballot mod n == id, shifted by one so ballot 0 means "none").
func (p *Proposer) startBallot(floor uint32) {
	n := uint32(p.inst.N)
	b := (floor/n + 1) * n // smallest multiple of n strictly above floor
	p.ballot = b + uint32(p.id) + 1
	p.rounds++
	p.inst.mbal(p.id).Write(p.id, uint64(p.ballot))
	p.phase = phase1
}

// scan returns, from the MBAL and BALINP rows in row[:2N], the highest
// promise ballot, plus the (bal, value) of the highest accepted ballot.
func (p *Proposer) scan(row []uint64) (maxMBal uint32, maxBal uint32, maxVal uint32) {
	n := p.inst.N
	for _, w := range row[:n] {
		if m := uint32(w); m > maxMBal {
			maxMBal = m
		}
	}
	for _, w := range row[n : 2*n] {
		if bal, val := unpackBalInp(w); bal > maxBal {
			maxBal, maxVal = bal, val
		}
	}
	return maxMBal, maxBal, maxVal
}
