package consensus

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"omegasm/internal/shmem"
)

// plainLog is a non-recycling log of single-command slots.
func plainLog(t testing.TB, mem shmem.Mem, n, slots int) *Log {
	t.Helper()
	log, err := NewCheckpointLog(mem, n, slots, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func newLogReplicas(t *testing.T, n, slots int, omega func(i int) func() int) []*Replica {
	t.Helper()
	mem := shmem.NewSimMem(n)
	log := plainLog(t, mem, n, slots)
	reps := make([]*Replica, n)
	for i := 0; i < n; i++ {
		r, err := NewReplica(log, i, omega(i))
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}
	return reps
}

func TestLogStableLeaderCommitsInOrder(t *testing.T) {
	reps := newLogReplicas(t, 3, 16, func(i int) func() int {
		return func() int { return 0 }
	})
	for k := 1; k <= 5; k++ {
		reps[0].Submit(uint32(k))
	}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 200_000; s++ {
		reps[rng.Intn(3)].Step(0)
		if len(reps[0].Committed()) >= 5 && len(reps[1].Committed()) >= 5 && len(reps[2].Committed()) >= 5 {
			break
		}
	}
	want := []uint32{1, 2, 3, 4, 5}
	for i, r := range reps {
		got := r.Committed()
		if len(got) < 5 || !reflect.DeepEqual(got[:5], want) {
			t.Fatalf("replica %d committed %v, want prefix %v", i, got, want)
		}
	}
	if reps[0].Pending() != 0 {
		t.Errorf("leader still has %d pending", reps[0].Pending())
	}
}

// TestLogPrefixAgreementUnderChurn: all replicas propose concurrently
// (self-proclaimed leaders); committed sequences must stay prefix-
// consistent for every seed.
func TestLogPrefixAgreementUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		reps := newLogReplicas(t, 3, 32, func(i int) func() int {
			return func() int { return i }
		})
		for i, r := range reps {
			for k := 0; k < 3; k++ {
				r.Submit(uint32(100*i + k + 1))
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s < 100_000; s++ {
			reps[rng.Intn(3)].Step(0)
		}
		// Prefix consistency.
		var longest []uint32
		for _, r := range reps {
			if c := r.Committed(); len(c) > len(longest) {
				longest = c
			}
		}
		for i, r := range reps {
			c := r.Committed()
			if !reflect.DeepEqual(c, longest[:len(c)]) {
				t.Fatalf("seed %d: replica %d diverged: %v vs %v", seed, i, c, longest)
			}
		}
		// No slot committed twice with different values is implied by
		// prefix equality; also check no duplicate values within a
		// replica's own committed prefix beyond resubmissions (inputs are
		// unique here).
		seen := map[uint32]bool{}
		for _, v := range longest {
			if seen[v] {
				t.Fatalf("seed %d: value %d committed in two slots", seed, v)
			}
			seen[v] = true
		}
	}
}

func TestLogFullStopsCleanly(t *testing.T) {
	reps := newLogReplicas(t, 2, 2, func(i int) func() int {
		return func() int { return 0 }
	})
	for k := 1; k <= 5; k++ {
		reps[0].Submit(uint32(k))
	}
	rng := rand.New(rand.NewSource(2))
	for s := 0; s < 50_000; s++ {
		reps[rng.Intn(2)].Step(0)
	}
	if got := len(reps[0].Committed()); got != 2 {
		t.Fatalf("committed %d, want exactly the 2 slots available", got)
	}
	// Further steps are no-ops, not panics.
	reps[0].Step(0)
}

func TestReplicaValidation(t *testing.T) {
	mem := shmem.NewSimMem(2)
	log := plainLog(t, mem, 2, 4)
	if _, err := NewReplica(log, 0, nil); err == nil {
		t.Error("nil oracle accepted")
	}
}

func TestReplicaLearnsForeignCommits(t *testing.T) {
	reps := newLogReplicas(t, 2, 4, func(i int) func() int {
		return func() int { return 0 }
	})
	reps[0].Submit(7)
	for s := 0; s < 10_000; s++ {
		reps[0].Step(0)
		if len(reps[0].Committed()) == 1 {
			break
		}
	}
	if len(reps[0].Committed()) != 1 {
		t.Fatal("leader did not commit")
	}
	// Replica 1 has nothing pending and is not leader: it learns purely
	// from the decision registers.
	for s := 0; s < 100 && len(reps[1].Committed()) == 0; s++ {
		reps[1].Step(0)
	}
	if got := reps[1].Committed(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("follower learned %v", got)
	}
}

// TestReplicaPollsDecisionOncePerMicroStep: a replica's learn poll is the
// only read of the DEC row in its micro-step — the proposer acts on what
// that poll found instead of polling again — while a standalone Proposer
// still polls before acting, so it adopts a decision published before its
// ballot without starting one.
func TestReplicaPollsDecisionOncePerMicroStep(t *testing.T) {
	const n = 3
	mem := shmem.NewAtomicMem(n, true)
	log := plainLog(t, mem, n, 4)
	r, err := NewReplica(log, 0, func() int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	decRowsReadBy := func(pid int) (reads uint64) {
		for _, reg := range mem.Census().Snapshot().Regs {
			if reg.Class == ClassDec {
				reads += reg.ReadsBy[pid]
			}
		}
		return reads / n
	}
	r.Submit(7)
	steps := 0
	for r.SlotsDecided() == 0 {
		if steps == 16 {
			t.Fatal("uncontended slot undecided after 16 micro-steps")
		}
		r.Step(0)
		steps++
	}
	if got := decRowsReadBy(0); got != uint64(steps) {
		t.Errorf("replica read the DEC row %d times in the slot's %d micro-steps, want once per step", got, steps)
	}

	inst, _ := log.instance(0)
	p, err := NewProposer(inst, 1, 9, func() int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	p.Step(0)
	if v, ok := p.Decided(); !ok || v != 7 || p.Rounds() != 0 {
		t.Errorf("standalone proposer after one step: decided (%d, %v) after %d ballots, want to adopt 7 without one", v, ok, p.Rounds())
	}
	if got := decRowsReadBy(1); got != 1 {
		t.Errorf("standalone proposer read the DEC row %d times in one step, want 1", got)
	}
}

// TestWonSlotEndsBurst: the micro-step that commits a slot the replica's
// own ballot won reports idle once nothing is left to propose — the next
// step would only poll a slot no one else is authorised to arm — but not
// while commands stay queued or a checkpoint is due, and a follower's
// learn never ends its burst (it may be behind by a backlog).
func TestWonSlotEndsBurst(t *testing.T) {
	// commitStep steps r until it passes one more slot and returns whether
	// that micro-step reported idle.
	commitStep := func(r *Replica) bool {
		t.Helper()
		for steps, slot := 0, r.SlotsDecided(); steps < 64; steps++ {
			if idle := r.step(0); r.SlotsDecided() > slot {
				return idle
			}
		}
		t.Fatal("no slot passed in 64 micro-steps")
		return false
	}
	reps := newLogReplicas(t, 3, 8, func(int) func() int { return func() int { return 0 } })
	reps[0].Submit(7)
	reps[0].Submit(8)
	if commitStep(reps[0]) {
		t.Error("won slot with a command still queued ended the burst")
	}
	if !commitStep(reps[0]) {
		t.Error("won slot with nothing left to propose did not end the burst")
	}
	for s := 0; s < 2; s++ {
		if commitStep(reps[1]) {
			t.Errorf("follower learning slot %d ended its burst", s)
		}
	}

	kv := newCkptKVs(t, 3, 8, 1, 1, func(int) func() int { return func() int { return 0 } })[0]
	kv.replica.Submit(7)
	if commitStep(kv.replica) {
		t.Error("won slot with a checkpoint due ended the burst")
	}
	if !commitStep(kv.replica) {
		t.Error("won checkpoint slot with nothing left to propose did not end the burst")
	}
}

// accessMem counts the accesses a memory whose every access is a round
// trip (the SAN) would carry: each ReadRow call is one read access,
// whatever it reads, and each register write is one write access. It
// records the register names of every ReadRow so a test can tell a
// decision poll from a scan.
type accessMem struct {
	shmem.Mem
	rows   [][]string // per ReadRow call: the names of the registers read
	byPid  []int      // per ReadRow call: the reader
	writes []int      // per process
}

type accessReg struct {
	shmem.Reg
	m *accessMem
}

func (r accessReg) Write(pid int, v uint64) {
	r.m.writes[pid]++
	r.Reg.Write(pid, v)
}

func (m *accessMem) Word(owner int, class string, idx ...int) shmem.Reg {
	return accessReg{m.Mem.Word(owner, class, idx...), m}
}

func (m *accessMem) ReadRow(pid int, regs []shmem.Reg, out []uint64) {
	names := make([]string, len(regs))
	for i, r := range regs {
		names[i] = r.Name()
		out[i] = r.Read(pid)
	}
	m.rows = append(m.rows, names)
	m.byPid = append(m.byPid, pid)
}

var _ shmem.RowReader = (*accessMem)(nil)

// TestWonSlotIsThreeReadAccesses pins the round trips a slot costs on a
// memory that batches row reads: a lone leader's won slot is three read
// accesses — each of its micro-steps polls DEC in the same access as the
// scan its phase action begins with — and three writes (MBAL, BALINP,
// DEC). A poll followed by a separate scan made it six reads. A follower,
// and a leader with nothing to propose, poll only the DEC row.
func TestWonSlotIsThreeReadAccesses(t *testing.T) {
	const n, puts = 3, 5
	mem := &accessMem{Mem: shmem.NewSimMem(n), writes: make([]int, n)}
	log := plainLog(t, mem, n, 16)
	reps := make([]*Replica, n)
	for i := range reps {
		r, err := NewReplica(log, i, func() int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}
	decRow := func(names []string) bool {
		if len(names) != n {
			return false
		}
		for _, name := range names {
			if !strings.HasPrefix(name, ClassDec+"[") {
				return false
			}
		}
		return true
	}
	lead := reps[0]
	for k := 1; k <= puts; k++ {
		lead.Submit(uint32(k))
		rows0, writes0 := len(mem.rows), mem.writes[0]
		for steps := 0; lead.SlotsDecided() < k; steps++ {
			if steps == 16 {
				t.Fatalf("put %d undecided after 16 micro-steps", k)
			}
			lead.Step(0)
		}
		if got := len(mem.rows) - rows0; got != 3 {
			t.Errorf("put %d: the leader's won slot took %d read accesses, want 3", k, got)
		}
		for _, names := range mem.rows[rows0:] {
			if len(names) != 3*n {
				t.Errorf("put %d: a leader read access carried %d registers, want the slot's %d", k, len(names), 3*n)
			}
		}
		if got := mem.writes[0] - writes0; got != 3 {
			t.Errorf("put %d: the leader's won slot took %d writes, want 3", k, got)
		}
	}

	// Nothing left to propose: the leader's step is one DEC row poll.
	rows0 := len(mem.rows)
	lead.Step(0)
	if got := mem.rows[rows0:]; len(got) != 1 || !decRow(got[0]) {
		t.Errorf("idle leader step read %v, want one DEC row", got)
	}

	// A follower learns each decided slot with one DEC row poll, and polls
	// the next, undecided one the same way.
	f := reps[1]
	rows0 = len(mem.rows)
	for f.SlotsDecided() < puts {
		f.Step(0)
	}
	f.Step(0)
	if got := len(mem.rows) - rows0; got != puts+1 {
		t.Errorf("follower took %d read accesses to learn %d slots and poll the next, want %d", got, puts, puts+1)
	}
	for i, names := range mem.rows[rows0:] {
		if mem.byPid[rows0+i] != 1 || !decRow(names) {
			t.Errorf("follower read access %d by %d read %v, want one DEC row", i, mem.byPid[rows0+i], names)
		}
	}
	if mem.writes[1] != 0 {
		t.Errorf("follower wrote %d registers", mem.writes[1])
	}
}
