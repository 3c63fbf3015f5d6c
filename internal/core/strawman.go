package core

import (
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// Strawman is the bounded-memory counterexample algorithm driven by the
// Figure 4 / Theorem 5 lower-bound experiment. It is Algorithm 1 with all
// unbounded state forcibly bounded, in the "obvious" (and provably wrong)
// way:
//
//   - the leader's heartbeat HB[i] wraps modulo Mod;
//   - suspicion counters SSUSP[i][k] saturate at SuspCap, so timeouts
//     also stop growing at SuspCap+1;
//   - non-leaders write nothing (no STOP register).
//
// The shared memory is therefore bounded AND only the current leader
// writes — exactly the combination Theorem 5 proves impossible for an
// Omega algorithm. The proof constructs a schedule in which the bounded
// memory keeps revisiting the same state S, so watchers cannot tell a live
// lockstep leader from a crashed one. Operationally, the harness pairs a
// Fixed{1}-paced leader with PhaseLocked timers of period Mod: every
// watcher check then observes HB at the same phase, sees no progress, and
// suspicion never ends — Eventual Leadership fails even though the run
// satisfies AWB. Algorithms 1 and 2 stabilize under the identical
// adversary (experiment F4).
type Strawman struct {
	id int
	n  int
	sh *SharedS

	candidates []bool
	last       []uint64
	mySusp     []uint64 // local copy of SSUSP[id][*] (saturated)
	myHB       uint64

	cachedLeader int
}

// SharedS is the strawman's (bounded) shared memory.
type SharedS struct {
	N       int
	Mod     uint64        // heartbeat modulus (>= 2)
	SuspCap uint64        // suspicion saturation cap (>= 1)
	HB      []shmem.Reg   // [i] owned by i, value in [0, Mod)
	SSusp   [][]shmem.Reg // [j][k] owned by j, value in [0, SuspCap]
}

// NewSharedS allocates the strawman's registers.
func NewSharedS(mem shmem.Mem, n int, mod, suspCap uint64) *SharedS {
	if mod < 2 {
		mod = 2
	}
	if suspCap < 1 {
		suspCap = 1
	}
	s := &SharedS{
		N:       n,
		Mod:     mod,
		SuspCap: suspCap,
		HB:      make([]shmem.Reg, n),
		SSusp:   make([][]shmem.Reg, n),
	}
	for j := 0; j < n; j++ {
		s.HB[j] = mem.Word(j, ClassHB, j)
		s.SSusp[j] = make([]shmem.Reg, n)
		for k := 0; k < n; k++ {
			s.SSusp[j][k] = mem.Word(j, ClassSSusp, j, k)
		}
	}
	return s
}

var _ Proc = (*Strawman)(nil)

// NewStrawman creates process id of the strawman over sh.
func NewStrawman(sh *SharedS, id int) *Strawman {
	p := &Strawman{
		id:           id,
		n:            sh.N,
		sh:           sh,
		candidates:   make([]bool, sh.N),
		last:         make([]uint64, sh.N),
		mySusp:       make([]uint64, sh.N),
		cachedLeader: id,
	}
	for k := range p.candidates {
		p.candidates[k] = true
	}
	return p
}

// ID implements Proc.
func (p *Strawman) ID() int { return p.id }

// Leader implements task T1's externally observable value.
func (p *Strawman) Leader() int { return p.cachedLeader }

func (p *Strawman) computeLeader() int {
	p.cachedLeader = t1Leader(p.sh.SSusp, p.mySusp, p.candidates, p.id)
	return p.cachedLeader
}

// Step: while leader, advance the wrapped heartbeat; otherwise stay
// silent (no STOP — non-leaders never write, by design of the strawman).
func (p *Strawman) Step(vclock.Time) {
	if p.computeLeader() == p.id {
		p.myHB = (p.myHB + 1) % p.sh.Mod
		p.sh.HB[p.id].Write(p.id, p.myHB)
	}
}

// OnTimer: suspect silent candidates; suspicion counters saturate, so the
// returned timeout is bounded by SuspCap+1 — the memory-bounded flaw.
func (p *Strawman) OnTimer(vclock.Time) uint64 {
	for k := 0; k < p.n; k++ {
		if k == p.id {
			continue
		}
		hb := p.sh.HB[k].Read(p.id)
		switch {
		case hb != p.last[k]:
			p.candidates[k] = true
			p.last[k] = hb
		case p.candidates[k]:
			if p.mySusp[k] < p.sh.SuspCap {
				p.mySusp[k]++
				p.sh.SSusp[p.id][k].Write(p.id, p.mySusp[k])
			}
			p.candidates[k] = false
		}
	}
	p.computeLeader()
	return maxPlusOne(p.mySusp) // bounded by SuspCap+1
}

// BuildStrawman allocates the strawman's shared memory in mem and returns
// the n process state machines.
func BuildStrawman(mem shmem.Mem, n int, mod, suspCap uint64) []*Strawman {
	sh := NewSharedS(mem, n, mod, suspCap)
	procs := make([]*Strawman, n)
	for i := 0; i < n; i++ {
		procs[i] = NewStrawman(sh, i)
	}
	return procs
}
