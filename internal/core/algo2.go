package core

import (
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// Shared2 is the shared memory of Algorithm 2 (paper Figure 5). The
// unbounded PROGRESS[i] counter of Algorithm 1 is replaced by a per-pair
// boolean handshake:
//
//   - PROGRESS[i][k]: boolean, owned by the signaller p_i. p_i signals
//     "I am alive" to p_k by setting PROGRESS[i][k] equal to LAST[i][k].
//   - LAST[i][k]: boolean, owned by the *watcher* p_k. p_k acknowledges
//     (cancels) the signal by flipping LAST[i][k] to the negation of the
//     PROGRESS[i][k] value it just read.
//
// Signal present  <=>  PROGRESS[i][k] == LAST[i][k].
//
// Reconstruction note: the source text of the report renders lines 17.R1
// and 19.R1 with the comparison and negation glyphs lost. The prose
// ("to signal p_k that it is alive, p_i sets PROGRESS[i][k] equal to
// LAST[i][k]; p_k indicates that it has seen this signal by cancelling
// it") uniquely determines the protocol up to the polarity of "signal
// present": cancelling must make the pair differ, re-signalling must make
// it equal again. The encoding here follows that reading; the symmetric
// encoding (signal = inequality) is behaviorally identical.
//
// SUSPICIONS and STOP are exactly as in Algorithm 1. Every shared variable
// is bounded: the booleans trivially, SUSPICIONS by Theorem 6's argument.
type Shared2 struct {
	N          int
	Suspicions [][]shmem.Reg // [j][k], row j owned by j
	Progress   [][]shmem.Reg // [i][k] owned by i (the signaller)
	Last       [][]shmem.Reg // [i][k] owned by k (the watcher)
	Stop       []shmem.Reg   // [i] owned by i
}

// NewShared2 allocates Algorithm 2's registers in mem with the paper's
// initial values (naturals 0, booleans true). PROGRESS == LAST initially,
// so every process starts out "signalled alive" to every other.
func NewShared2(mem shmem.Mem, n int) *Shared2 {
	s := &Shared2{
		N:          n,
		Suspicions: make([][]shmem.Reg, n),
		Progress:   make([][]shmem.Reg, n),
		Last:       make([][]shmem.Reg, n),
		Stop:       make([]shmem.Reg, n),
	}
	for i := 0; i < n; i++ {
		s.Suspicions[i] = make([]shmem.Reg, n)
		s.Progress[i] = make([]shmem.Reg, n)
		s.Last[i] = make([]shmem.Reg, n)
		for k := 0; k < n; k++ {
			s.Suspicions[i][k] = mem.Word(i, ClassSuspicions, i, k)
			s.Progress[i][k] = mem.Word(i, ClassProgress, i, k)
			s.Last[i][k] = mem.Word(k, ClassLast, i, k)
			shmem.SeedIfPossible(s.Progress[i][k], shmem.B2W(true))
			shmem.SeedIfPossible(s.Last[i][k], shmem.B2W(true))
		}
		s.Stop[i] = mem.Word(i, ClassStop, i)
		shmem.SeedIfPossible(s.Stop[i], shmem.B2W(true))
	}
	return s
}

// Algo2 is one process of Algorithm 2 (paper Figure 5). All its shared
// variables are bounded (Theorem 6); the price — proven unavoidable by
// Theorem 5 / Corollary 1 — is that every correct process keeps writing
// shared memory forever: the watchers' LAST acknowledgements never stop.
type Algo2 struct {
	id int
	n  int
	sh *Shared2

	candidates []bool

	// Local copies of own registers: STOP[id], SUSPICIONS[id][*], and the
	// watcher-side LAST[k][id] for every k.
	myStop bool
	mySusp []uint64
	myLast []bool // myLast[k] caches LAST[k][id]

	cachedLeader int
}

var _ Proc = (*Algo2)(nil)

// NewAlgo2 creates process id of Algorithm 2 over the shared memory sh.
func NewAlgo2(sh *Shared2, id int) *Algo2 {
	p := &Algo2{
		id:           id,
		n:            sh.N,
		sh:           sh,
		candidates:   make([]bool, sh.N),
		mySusp:       make([]uint64, sh.N),
		myLast:       make([]bool, sh.N),
		cachedLeader: id,
	}
	for k := range p.candidates {
		p.candidates[k] = true
	}
	p.myStop = shmem.W2B(sh.Stop[id].Read(id))
	for k := 0; k < sh.N; k++ {
		p.mySusp[k] = sh.Suspicions[id][k].Read(id)
		p.myLast[k] = shmem.W2B(sh.Last[k][id].Read(id))
	}
	return p
}

// ID implements Proc.
func (p *Algo2) ID() int { return p.id }

// Leader implements task T1's externally observable value.
func (p *Algo2) Leader() int { return p.cachedLeader }

func (p *Algo2) computeLeader() int {
	p.cachedLeader = t1Leader(p.sh.Suspicions, p.mySusp, p.candidates, p.id)
	return p.cachedLeader
}

// Step implements one iteration of task T2 (paper lines 6-12, with lines
// 8.R1-8.R3): while leader, re-signal every other process by copying its
// acknowledgement value back into PROGRESS (making the pair equal again).
func (p *Algo2) Step(vclock.Time) {
	if p.computeLeader() == p.id {
		for k := 0; k < p.n; k++ { // lines 8.R1-8.R3
			if k == p.id {
				continue
			}
			ack := p.sh.Last[p.id][k].Read(p.id) // LAST[i][k], owned by k
			p.sh.Progress[p.id][k].Write(p.id, ack)
		}
		if p.myStop {
			p.myStop = false
			p.sh.Stop[p.id].Write(p.id, shmem.B2W(false)) // line 9
		}
		return
	}
	if !p.myStop {
		p.myStop = true
		p.sh.Stop[p.id].Write(p.id, shmem.B2W(true)) // line 11
	}
}

// OnTimer implements task T3 (paper lines 13-27 with 16.R1/17.R1/19.R1).
// "PROGRESS[k][i] == LAST[k][i]" plays the role of Algorithm 1's
// "PROGRESS[k] changed": it means k re-signalled since our last
// acknowledgement.
func (p *Algo2) OnTimer(vclock.Time) uint64 {
	for k := 0; k < p.n; k++ {
		if k == p.id {
			continue
		}
		stopK := shmem.W2B(p.sh.Stop[k].Read(p.id))           // line 15
		progK := shmem.W2B(p.sh.Progress[k][p.id].Read(p.id)) // line 16.R1
		switch {
		case progK == p.myLast[k]: // line 17.R1: signal present
			p.candidates[k] = true // line 18
			p.myLast[k] = !progK   // line 19.R1: cancel the signal
			p.sh.Last[k][p.id].Write(p.id, shmem.B2W(p.myLast[k]))
		case stopK: // line 20
			p.candidates[k] = false // line 21
		case p.candidates[k]: // line 22
			p.mySusp[k]++
			p.sh.Suspicions[p.id][k].Write(p.id, p.mySusp[k]) // line 23
			p.candidates[k] = false                           // line 24
		}
	}
	p.computeLeader()
	return maxPlusOne(p.mySusp) // line 27
}

// BuildAlgo2 allocates Algorithm 2's shared memory in mem and returns the
// n process state machines.
func BuildAlgo2(mem shmem.Mem, n int) []*Algo2 {
	sh := NewShared2(mem, n)
	procs := make([]*Algo2, n)
	for i := 0; i < n; i++ {
		procs[i] = NewAlgo2(sh, i)
	}
	return procs
}
