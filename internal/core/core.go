// Package core implements the paper's contribution: eventual leader (Omega)
// election algorithms for the crash-prone asynchronous shared-memory model
// augmented with the AWB assumption.
//
// Algorithms provided:
//
//   - Algo1 (paper Figure 2): write-efficient. After stabilization only the
//     elected leader writes shared memory, and every shared variable except
//     PROGRESS[ell] is bounded. Optimal in the number of eventual writers.
//   - Algo2 (paper Figure 5): all shared variables bounded, via a per-pair
//     boolean handshake; every correct process writes forever (which
//     Theorem 5 / Corollary 1 prove is unavoidable with bounded memory).
//   - NWNR (paper Section 3.5): Algo1 with each SUSPICIONS column collapsed
//     into one multi-writer register.
//   - TimerFree (paper Section 3.5): Algo1 with the local timer replaced by
//     a counted busy loop.
//   - Strawman (paper Figure 4, used adversarially): a bounded-memory
//     heartbeat algorithm in which only the leader writes. Theorem 5 proves
//     such an algorithm cannot implement Omega; the harness drives it with
//     the proof's schedule and watches it fail.
//
// Every algorithm is a set of per-process state machines exposing the
// paper's three tasks: Leader (task T1), Step (one iteration of task T2's
// infinite loop) and OnTimer (task T3). The same state machines run under
// the deterministic simulator (engine.Sim) and the live goroutine runtime
// (package rt).
package core

import (
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// Proc is one algorithm process as every host sees it — the run host of
// the experiments, the public simulator and the live runtime. The three
// methods are the paper's three tasks.
type Proc interface {
	// Step executes one iteration of task T2's infinite loop at time now.
	Step(now vclock.Time)
	// OnTimer executes task T3, the timer-expiry handler, and returns the
	// timeout value x the timer is re-set to (paper line 27); the host
	// maps x to a duration. Returning 0 disarms the timer.
	OnTimer(now vclock.Time) (next uint64)
	// Leader returns the process's current leader estimate (task T1).
	Leader() int
	// ID returns the process identity in [0, n).
	ID() int
}

// Procs views a slice of concrete algorithm processes as []Proc.
func Procs[T Proc](ps []T) []Proc {
	out := make([]Proc, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

// lexLess is the paper's lexicographic order on (suspicion count, id)
// pairs: (a1,i1) < (a2,i2) iff a1 < a2, or a1 == a2 and i1 < i2.
func lexLess(susp1 uint64, id1 int, susp2 uint64, id2 int) bool {
	if susp1 != susp2 {
		return susp1 < susp2
	}
	return id1 < id2
}

// t1Leader is the body of task T1 (paper lines 2-5) over a
// SUSPICIONS-shaped matrix susp[j][k]: for every candidate k it sums
// column k — row self from the local copy own, every other row read by
// process self — and returns the candidate minimizing (sum, k). Registers
// are read k outer, j inner, and a running minimum replaces the vector of
// sums, so T1 allocates nothing. It returns self if there is no candidate
// — the paper guarantees i is always in candidates_i, so this is only a
// defensive default for arbitrary initial states.
func t1Leader(susp [][]shmem.Reg, own []uint64, candidates []bool, self int) int {
	best := -1
	var bestSum uint64
	for k, isCand := range candidates {
		if !isCand {
			continue
		}
		var s uint64
		for j, row := range susp {
			if j == self {
				s += own[k]
			} else {
				s += row[k].Read(self)
			}
		}
		if best == -1 || lexLess(s, k, bestSum, best) {
			best, bestSum = k, s
		}
	}
	if best == -1 {
		return self
	}
	return best
}

// maxPlusOne returns max(xs) + 1, the paper's next timeout value
// (line 27: set timer to max_k SUSPICIONS[i][k] + 1).
func maxPlusOne(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m + 1
}

// Register class names used across the algorithms; the census and the
// experiment harness key on these.
const (
	ClassSuspicions = "SUSPICIONS"
	ClassProgress   = "PROGRESS"
	ClassStop       = "STOP"
	ClassLast       = "LAST"
	// nWnR variant.
	ClassNSusp = "NSUSP"
	// Strawman.
	ClassHB    = "HB"
	ClassSSusp = "SSUSP"
)
