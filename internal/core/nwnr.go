package core

import (
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// SharedN is the shared memory of the nWnR variant (paper Section 3.5,
// "Using multi-writer/multi-reader atomic registers"): each column
// SUSPICIONS[*][k] of Algorithm 1 collapses into a single multi-writer
// register NSUSP[k] holding the total suspicion count of p_k. PROGRESS and
// STOP are unchanged.
//
// The increment of NSUSP[k] is a read-modify-write; in the simulation a
// whole T3 firing is a single scheduler event, so the RMW is atomic. On
// the live runtime (the paper assumes atomic nWnR registers, which
// subsume fetch-and-add) the read and write are two separate register
// operations, so concurrent increments can collapse into one. That only
// under-counts suspicions — the counter stays monotone, and convergence
// is unaffected: once the run stabilizes no process suspects the leader,
// every NSUSP register stops changing, and all processes compute the same
// lexicographic minimum.
type SharedN struct {
	N        int
	NSusp    []shmem.Reg // [k], multi-writer
	Progress []shmem.Reg // [i] owned by i
	Stop     []shmem.Reg // [i] owned by i
}

// NewSharedN allocates the nWnR variant's registers.
func NewSharedN(mem shmem.Mem, n int) *SharedN {
	s := &SharedN{
		N:        n,
		NSusp:    make([]shmem.Reg, n),
		Progress: make([]shmem.Reg, n),
		Stop:     make([]shmem.Reg, n),
	}
	for k := 0; k < n; k++ {
		s.NSusp[k] = mem.Word(shmem.MultiWriter, ClassNSusp, k)
		s.Progress[k] = mem.Word(k, ClassProgress, k)
		s.Stop[k] = mem.Word(k, ClassStop, k)
		shmem.SeedIfPossible(s.Stop[k], shmem.B2W(true))
	}
	return s
}

// NWNR is one process of the nWnR variant. Task bodies are those of
// Algorithm 1 with the suspicion matrix column-collapsed. The timeout is
// derived from the process's *local* count of suspicions it has itself
// issued (mySuspCount), preserving Algorithm 1's property that the timeout
// is computed from process-owned state only (paper's remark after line 27).
type NWNR struct {
	id int
	n  int
	sh *SharedN

	candidates  []bool
	last        []uint64
	mySuspCount []uint64 // suspicions issued by this process, per target

	myProgress uint64
	myStop     bool

	cachedLeader int
}

var _ Proc = (*NWNR)(nil)

// NewNWNR creates process id of the nWnR variant.
func NewNWNR(sh *SharedN, id int) *NWNR {
	p := &NWNR{
		id:           id,
		n:            sh.N,
		sh:           sh,
		candidates:   make([]bool, sh.N),
		last:         make([]uint64, sh.N),
		mySuspCount:  make([]uint64, sh.N),
		cachedLeader: id,
	}
	for k := range p.candidates {
		p.candidates[k] = true
	}
	p.myProgress = sh.Progress[id].Read(id)
	p.myStop = shmem.W2B(sh.Stop[id].Read(id))
	return p
}

// ID implements Proc.
func (p *NWNR) ID() int { return p.id }

// Leader implements task T1's externally observable value.
func (p *NWNR) Leader() int { return p.cachedLeader }

// computeLeader is task T1 with each column sum already collapsed into
// NSUSP[k]: the same running lexicographic minimum as t1Leader, one read
// per candidate.
func (p *NWNR) computeLeader() int {
	best := -1
	var bestSum uint64
	for k, isCand := range p.candidates {
		if !isCand {
			continue
		}
		if s := p.sh.NSusp[k].Read(p.id); best == -1 || lexLess(s, k, bestSum, best) {
			best, bestSum = k, s
		}
	}
	if best == -1 {
		best = p.id
	}
	p.cachedLeader = best
	return best
}

// Step is task T2, identical to Algorithm 1's.
func (p *NWNR) Step(vclock.Time) {
	if p.computeLeader() == p.id {
		p.myProgress++
		p.sh.Progress[p.id].Write(p.id, p.myProgress)
		if p.myStop {
			p.myStop = false
			p.sh.Stop[p.id].Write(p.id, shmem.B2W(false))
		}
		return
	}
	if !p.myStop {
		p.myStop = true
		p.sh.Stop[p.id].Write(p.id, shmem.B2W(true))
	}
}

// OnTimer is task T3 with the collapsed suspicion vector.
func (p *NWNR) OnTimer(vclock.Time) uint64 {
	for k := 0; k < p.n; k++ {
		if k == p.id {
			continue
		}
		stopK := shmem.W2B(p.sh.Stop[k].Read(p.id))
		progK := p.sh.Progress[k].Read(p.id)
		switch {
		case progK != p.last[k]:
			p.candidates[k] = true
			p.last[k] = progK
		case stopK:
			p.candidates[k] = false
		case p.candidates[k]:
			cur := p.sh.NSusp[k].Read(p.id)
			p.sh.NSusp[k].Write(p.id, cur+1)
			p.mySuspCount[k]++
			p.candidates[k] = false
		}
	}
	p.computeLeader()
	return maxPlusOne(p.mySuspCount)
}

// BuildNWNR allocates the nWnR variant's shared memory in mem and returns
// the n process state machines.
func BuildNWNR(mem shmem.Mem, n int) []*NWNR {
	sh := NewSharedN(mem, n)
	procs := make([]*NWNR, n)
	for i := 0; i < n; i++ {
		procs[i] = NewNWNR(sh, i)
	}
	return procs
}
