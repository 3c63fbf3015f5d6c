package core

import (
	"slices"
	"testing"
	"testing/quick"

	"omegasm/internal/shmem"
)

func TestLexLess(t *testing.T) {
	tests := []struct {
		s1   uint64
		id1  int
		s2   uint64
		id2  int
		want bool
	}{
		{0, 5, 1, 0, true},  // fewer suspicions wins regardless of id
		{1, 0, 0, 5, false}, //
		{2, 1, 2, 3, true},  // tie: lower id wins
		{2, 3, 2, 1, false}, //
		{7, 4, 7, 4, false}, // equal pair is not less
	}
	for _, tc := range tests {
		if got := lexLess(tc.s1, tc.id1, tc.s2, tc.id2); got != tc.want {
			t.Errorf("lexLess(%d,%d | %d,%d) = %v, want %v", tc.s1, tc.id1, tc.s2, tc.id2, got, tc.want)
		}
	}
}

// TestLexLessTotalOrder: property — lexLess is a strict total order:
// irreflexive, asymmetric, and total on distinct pairs.
func TestLexLessTotalOrder(t *testing.T) {
	f := func(s1 uint64, id1 uint8, s2 uint64, id2 uint8) bool {
		a, b := lexLess(s1, int(id1), s2, int(id2)), lexLess(s2, int(id2), s1, int(id1))
		if s1 == s2 && id1 == id2 {
			return !a && !b // irreflexive
		}
		return a != b // asymmetric and total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// suspMatrix allocates an n×n SUSPICIONS-shaped matrix on mem holding
// cells row-major (missing cells stay 0) and returns it with row self's
// values as the local copy and every column's sum.
func suspMatrix(mem shmem.Mem, n, self int, cells []uint16) (susp [][]shmem.Reg, own, sums []uint64) {
	susp = make([][]shmem.Reg, n)
	own = make([]uint64, n)
	sums = make([]uint64, n)
	for j := range susp {
		susp[j] = make([]shmem.Reg, n)
		for k := range susp[j] {
			var v uint64
			if i := j*n + k; i < len(cells) {
				v = uint64(cells[i])
			}
			susp[j][k] = mem.Word(j, ClassSuspicions, j, k)
			susp[j][k].Write(j, v)
			if j == self {
				own[k] = v
			}
			sums[k] += v
		}
	}
	return susp, own, sums
}

// maskOf unpacks the low n bits of mask into a candidate set.
func maskOf(mask uint8, n int) []bool {
	cand := make([]bool, n)
	for k := range cand {
		cand[k] = mask&(1<<uint(k)) != 0
	}
	return cand
}

func TestT1Leader(t *testing.T) {
	// Column sums 5, 3, 3, 9, split across process 0's own row (the local
	// copy) and process 2's row (read from shared memory).
	susp, own, _ := suspMatrix(shmem.NewSimMem(4), 4, 0, []uint16{
		2, 1, 0, 4,
		0, 0, 0, 0,
		3, 2, 3, 5,
	})
	cand := []bool{true, true, true, true}
	if got := t1Leader(susp, own, cand, 0); got != 1 {
		t.Errorf("t1Leader = %d, want 1 (least suspected, lowest id on tie)", got)
	}
	cand[1] = false
	if got := t1Leader(susp, own, cand, 0); got != 2 {
		t.Errorf("t1Leader = %d, want 2", got)
	}
	// Empty candidate set is defensive: returns self.
	if got := t1Leader(susp, own, []bool{false, false, false, false}, 3); got != 3 {
		t.Errorf("t1Leader on empty set = %d, want self", got)
	}
}

// TestT1LeaderIsMinimal: property — the returned id belongs to the set and
// no other candidate's column sum is lexicographically smaller.
func TestT1LeaderIsMinimal(t *testing.T) {
	f := func(cells []uint16, mask, size, self uint8) bool {
		n := int(size%8) + 1
		me := int(self) % n
		susp, own, sums := suspMatrix(shmem.NewSimMem(n), n, me, cells)
		cand := maskOf(mask, n)
		got := t1Leader(susp, own, cand, me)
		if !slices.Contains(cand, true) {
			return got == me
		}
		if !cand[got] {
			return false
		}
		for k := range cand {
			if cand[k] && lexLess(sums[k], k, sums[got], got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// t1Reference is task T1 as every variant computed it before t1Leader: a
// fresh vector of column sums over the candidates, then the lexicographic
// minimum of (sum, id) over the candidate set.
func t1Reference(susp [][]shmem.Reg, own []uint64, candidates []bool, self int) int {
	n := len(candidates)
	sums := make([]uint64, n)
	for k := 0; k < n; k++ {
		if !candidates[k] {
			continue
		}
		for j := 0; j < n; j++ {
			if j == self {
				sums[k] += own[k]
			} else {
				sums[k] += susp[j][k].Read(self)
			}
		}
	}
	best := -1
	for k := range candidates {
		if candidates[k] && (best == -1 || lexLess(sums[k], k, sums[best], best)) {
			best = k
		}
	}
	if best == -1 {
		return self
	}
	return best
}

// loggedReg records the name of every register read, in order.
type loggedReg struct {
	shmem.Reg
	log *[]string
}

func (r loggedReg) Read(pid int) uint64 {
	*r.log = append(*r.log, r.Name())
	return r.Reg.Read(pid)
}

// TestT1LeaderMatchesReference: property — on random matrices and
// candidate sets the running minimum returns the old body's answer and
// reads exactly the registers it read, in the same order, so census
// counts and simulated schedules cannot move.
func TestT1LeaderMatchesReference(t *testing.T) {
	f := func(cells []uint16, mask, size, self uint8) bool {
		n := int(size%8) + 1
		me := int(self) % n
		cand := maskOf(mask, n)
		run := func(t1 func([][]shmem.Reg, []uint64, []bool, int) int) (int, []string, *shmem.CensusSnapshot) {
			mem := shmem.NewSimMem(n)
			susp, own, _ := suspMatrix(mem, n, me, cells)
			var log []string
			for _, row := range susp {
				for k, r := range row {
					row[k] = loggedReg{Reg: r, log: &log}
				}
			}
			return t1(susp, own, cand, me), log, mem.Census().Snapshot()
		}
		got, gotLog, gotCensus := run(t1Leader)
		want, wantLog, wantCensus := run(t1Reference)
		if got != want || !slices.Equal(gotLog, wantLog) {
			return false
		}
		for name, r := range wantCensus.Regs {
			if !slices.Equal(gotCensus.Regs[name].ReadsBy, r.ReadsBy) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestT1ZeroAllocs: after one warm-up, tasks T2 and T3 of every variant
// allocate nothing, on the simulator's memory and on the live one.
func TestT1ZeroAllocs(t *testing.T) {
	const n = 3
	variants := []struct {
		name  string
		build func(shmem.Mem) []Proc
	}{
		{"Algo1", func(m shmem.Mem) []Proc { return Procs(BuildAlgo1(m, n)) }},
		{"Algo2", func(m shmem.Mem) []Proc { return Procs(BuildAlgo2(m, n)) }},
		{"NWNR", func(m shmem.Mem) []Proc { return Procs(BuildNWNR(m, n)) }},
		{"TimerFree", func(m shmem.Mem) []Proc { return Procs(BuildTimerFree(m, n)) }},
		{"NoStop", func(m shmem.Mem) []Proc { return Procs(BuildNoStop(m, n)) }},
		{"Strawman", func(m shmem.Mem) []Proc { return Procs(BuildStrawman(m, n, 4, 8)) }},
	}
	mems := []struct {
		name string
		mem  func() shmem.Mem
	}{
		{"SimMem", func() shmem.Mem { return shmem.NewSimMem(n) }},
		{"AtomicMem", func() shmem.Mem { return shmem.NewAtomicMem(n, false) }},
	}
	for _, v := range variants {
		for _, m := range mems {
			procs := v.build(m.mem())
			round := func() {
				for _, p := range procs {
					p.Step(0)
					p.OnTimer(0)
				}
			}
			round()
			if avg := testing.AllocsPerRun(100, round); avg != 0 {
				t.Errorf("%s on %s: %.1f allocations per T2 step and T3 firing of every process, want 0", v.name, m.name, avg)
			}
		}
	}
}

func TestMaxPlusOne(t *testing.T) {
	if got := maxPlusOne(nil); got != 1 {
		t.Errorf("maxPlusOne(nil) = %d, want 1", got)
	}
	if got := maxPlusOne([]uint64{0, 0}); got != 1 {
		t.Errorf("maxPlusOne(zeros) = %d, want 1", got)
	}
	if got := maxPlusOne([]uint64{3, 9, 1}); got != 10 {
		t.Errorf("maxPlusOne = %d, want 10", got)
	}
}
