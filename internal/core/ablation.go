package core

import (
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// This file holds the ablation variants of Algorithm 1 used by the
// harness's A-series experiments. They are deliberately *worse* than the
// paper's algorithm: each removes one design element to measure (or
// falsify) what that element buys. They are not part of the public API.

// NoStop is Algorithm 1 without the STOP registers (ablation A1): a
// process that stops competing simply goes silent, so watchers cannot
// distinguish voluntary demotion from a crash and charge a suspicion for
// every demotion. The variant still implements Omega — the suspicion
// totals of processes in B stay bounded once leadership settles — but it
// pays for every leadership change with permanent suspicion growth and
// correspondingly inflated timeouts. Experiment A1 quantifies the
// difference.
type NoStop struct {
	id int
	n  int
	sh *SharedNS

	candidates []bool
	last       []uint64
	mySusp     []uint64
	myProgress uint64

	cachedLeader int
}

// SharedNS is NoStop's shared memory: Algorithm 1 minus the STOP array.
type SharedNS struct {
	N          int
	Suspicions [][]shmem.Reg
	Progress   []shmem.Reg
}

// NewSharedNS allocates the NoStop variant's registers.
func NewSharedNS(mem shmem.Mem, n int) *SharedNS {
	s := &SharedNS{
		N:          n,
		Suspicions: make([][]shmem.Reg, n),
		Progress:   make([]shmem.Reg, n),
	}
	for j := 0; j < n; j++ {
		s.Suspicions[j] = make([]shmem.Reg, n)
		for k := 0; k < n; k++ {
			s.Suspicions[j][k] = mem.Word(j, ClassSuspicions, j, k)
		}
		s.Progress[j] = mem.Word(j, ClassProgress, j)
	}
	return s
}

var _ Proc = (*NoStop)(nil)

// NewNoStop creates process id of the NoStop ablation.
func NewNoStop(sh *SharedNS, id int) *NoStop {
	p := &NoStop{
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
func (p *NoStop) ID() int { return p.id }

// Leader implements task T1's externally observable value.
func (p *NoStop) Leader() int { return p.cachedLeader }

func (p *NoStop) computeLeader() int {
	p.cachedLeader = t1Leader(p.sh.Suspicions, p.mySusp, p.candidates, p.id)
	return p.cachedLeader
}

// Step is task T2 without the STOP bookkeeping: demotion is silence.
func (p *NoStop) Step(vclock.Time) {
	if p.computeLeader() == p.id {
		p.myProgress++
		p.sh.Progress[p.id].Write(p.id, p.myProgress)
	}
}

// OnTimer is task T3 without the voluntary-withdrawal branch: silence is
// always charged as a suspicion.
func (p *NoStop) OnTimer(vclock.Time) uint64 {
	for k := 0; k < p.n; k++ {
		if k == p.id {
			continue
		}
		progK := p.sh.Progress[k].Read(p.id)
		switch {
		case progK != p.last[k]:
			p.candidates[k] = true
			p.last[k] = progK
		case p.candidates[k]:
			p.mySusp[k]++
			p.sh.Suspicions[p.id][k].Write(p.id, p.mySusp[k])
			p.candidates[k] = false
		}
	}
	p.computeLeader()
	return maxPlusOne(p.mySusp)
}

// BuildNoStop allocates the NoStop variant over mem.
func BuildNoStop(mem shmem.Mem, n int) []*NoStop {
	sh := NewSharedNS(mem, n)
	procs := make([]*NoStop, n)
	for i := 0; i < n; i++ {
		procs[i] = NewNoStop(sh, i)
	}
	return procs
}

// LeaderNoRead is Algorithm 1 with one change (ablation A2, probing the
// paper's Section 5 open question "is there a time after which the
// eventual leader need not read the shared memory?"): once a process
// considers itself leader it stops refreshing the suspicion totals — its
// task T1 answers from the cache while it reigns.
//
// The ablation demonstrates that the naive answer is NO: if the reigning
// leader is suspected during an outage, the other processes durably move
// to a less-suspected process, but the blinded incumbent never learns it
// was demoted and returns the stale answer "me" forever — a permanent
// split that violates Eventual Leadership. (The open question remains
// open; this shows the obvious shortcut is unsound, complementing
// Lemma 6, which proves the *non-leaders* must read forever.)
type LeaderNoRead struct {
	*Algo1
	// BlindAfter is the number of consecutive self-leading steps after
	// which the process stops reading; reign counts them.
	BlindAfter int
	reign      int
}

var _ Proc = (*LeaderNoRead)(nil)

// NewLeaderNoRead creates process id of the LeaderNoRead ablation over
// Algorithm 1 shared memory. The process behaves exactly like Algorithm 1
// until it has led for blindAfter consecutive steps; from then on it
// reigns blind.
func NewLeaderNoRead(sh *Shared1, id int, blindAfter int) *LeaderNoRead {
	if blindAfter < 1 {
		blindAfter = 1
	}
	return &LeaderNoRead{Algo1: NewAlgo1(sh, id), BlindAfter: blindAfter}
}

func (p *LeaderNoRead) blind() bool {
	return p.reign >= p.BlindAfter && p.cachedLeader == p.id
}

// Step is task T2, but once the process has reigned for BlindAfter
// consecutive steps it skips the leader computation — the reigning leader
// performs no reads.
func (p *LeaderNoRead) Step(now vclock.Time) {
	if p.blind() {
		// Blinded reign: keep heartbeating without re-reading suspicions.
		p.myProgress++
		p.sh.Progress[p.id].Write(p.id, p.myProgress)
		if p.myStop {
			p.myStop = false
			p.sh.Stop[p.id].Write(p.id, shmem.B2W(false))
		}
		p.reign++
		return
	}
	p.Algo1.Step(now)
	if p.cachedLeader == p.id {
		p.reign++
	} else {
		p.reign = 0
	}
}

// OnTimer runs the normal task T3 unless the process reigns blind, in
// which case it only maintains its own timeout.
func (p *LeaderNoRead) OnTimer(now vclock.Time) uint64 {
	if p.blind() {
		var m uint64
		for _, s := range p.mySusp {
			if s > m {
				m = s
			}
		}
		return m + 1
	}
	return p.Algo1.OnTimer(now)
}

// BuildLeaderNoRead allocates the ablation over mem.
func BuildLeaderNoRead(mem shmem.Mem, n, blindAfter int) []*LeaderNoRead {
	sh := NewShared1(mem, n)
	procs := make([]*LeaderNoRead, n)
	for i := 0; i < n; i++ {
		procs[i] = NewLeaderNoRead(sh, i, blindAfter)
	}
	return procs
}
