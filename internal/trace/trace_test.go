package trace

import (
	"strings"
	"testing"

	"omegasm/internal/shmem"
)

func sample(t int64, leaders ...int) Sample {
	return Sample{T: t, Leaders: leaders}
}

func TestStabilizationBasic(t *testing.T) {
	samples := []Sample{
		sample(10, 0, 1, 2),
		sample(20, 1, 1, 2),
		sample(30, 1, 1, 1),
		sample(40, 1, 1, 1),
	}
	crashed := []bool{false, false, false}
	st, leader, ok := Stabilization(samples, crashed)
	if !ok || leader != 1 || st != 30 {
		t.Fatalf("got (%d,%d,%v), want (30,1,true)", st, leader, ok)
	}
}

func TestStabilizationNeverAgrees(t *testing.T) {
	samples := []Sample{
		sample(10, 0, 1),
		sample(20, 1, 0),
	}
	if _, _, ok := Stabilization(samples, []bool{false, false}); ok {
		t.Fatal("disagreeing run reported stable")
	}
}

func TestStabilizationCrashedLeaderRejected(t *testing.T) {
	// Everyone agrees on process 0, but 0 crashed during the run:
	// Eventual Leadership requires a CORRECT leader.
	samples := []Sample{
		sample(10, 0, 0, 0),
		sample(20, -1, 0, 0),
	}
	if _, _, ok := Stabilization(samples, []bool{true, false, false}); ok {
		t.Fatal("crashed leader accepted")
	}
}

func TestStabilizationIgnoresEventuallyCrashedProcesses(t *testing.T) {
	// Process 2 disagrees early and then crashes; the oracle only
	// constrains correct processes, so the run is stable from t=10.
	samples := []Sample{
		sample(10, 1, 1, 2),
		sample(20, 1, 1, -1),
		sample(30, 1, 1, -1),
	}
	st, leader, ok := Stabilization(samples, []bool{false, false, true})
	if !ok || leader != 1 || st != 10 {
		t.Fatalf("got (%d,%d,%v), want (10,1,true)", st, leader, ok)
	}
}

func TestStabilizationEmpty(t *testing.T) {
	if _, _, ok := Stabilization(nil, nil); ok {
		t.Fatal("empty run reported stable")
	}
	// All processes crashed by the end.
	samples := []Sample{sample(10, -1, -1)}
	if _, _, ok := Stabilization(samples, []bool{true, true}); ok {
		t.Fatal("fully-crashed run reported stable")
	}
}

func TestStabilizationFlappingSuffixDetected(t *testing.T) {
	// Agreement at the end only: stabilization time is the start of the
	// final agreeing suffix, not any earlier coincidental agreement.
	samples := []Sample{
		sample(10, 1, 1),
		sample(20, 0, 1),
		sample(30, 1, 1),
	}
	st, leader, ok := Stabilization(samples, []bool{false, false})
	if !ok || leader != 1 || st != 30 {
		t.Fatalf("got (%d,%d,%v), want (30,1,true)", st, leader, ok)
	}
}

func TestLeaderChangesAfter(t *testing.T) {
	samples := []Sample{
		sample(10, 0, 0),
		sample(20, 1, 0), // p0 changed
		sample(30, 1, 1), // p1 changed
		sample(40, 1, 1),
	}
	if got := LeaderChangesAfter(samples, 0); got != 2 {
		t.Errorf("changes from 0 = %d, want 2", got)
	}
	if got := LeaderChangesAfter(samples, 25); got != 1 {
		t.Errorf("changes from 25 = %d, want 1", got)
	}
	if got := LeaderChangesAfter(samples, 35); got != 0 {
		t.Errorf("changes from 35 = %d, want 0", got)
	}
	// Crashed processes (-1) never count as changes.
	samples2 := []Sample{sample(10, 0, 0), sample(20, 0, -1)}
	if got := LeaderChangesAfter(samples2, 0); got != 0 {
		t.Errorf("crash counted as leader change: %d", got)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{}
	r.Add("claimA", true, "fine")
	r.Add("claimB", false, "broken")
	if r.AllOK() {
		t.Fatal("AllOK with a failing verdict")
	}
	s := r.String()
	if !strings.Contains(s, "PASS") || !strings.Contains(s, "FAIL") {
		t.Errorf("report rendering missing statuses:\n%s", s)
	}
}

// censusWith builds a census snapshot with the given writes/reads applied.
type access struct {
	class string
	name  string
	owner int
	pid   int
	write bool
	value uint64
}

func buildSnapshot(n int, accesses []access) *shmem.CensusSnapshot {
	c := shmem.NewCensus(n, nil)
	for _, a := range accesses {
		st := c.Track(a.class, a.name, a.owner)
		if a.write {
			c.NoteWrite(st, a.pid, a.value)
		} else {
			c.NoteRead(st, a.pid)
		}
	}
	return c.Snapshot()
}

func TestCheckWriteEfficiency(t *testing.T) {
	good := buildSnapshot(3, []access{
		{"PROGRESS", "PROGRESS[1]", 1, 1, true, 5},
	})
	r := &Report{}
	CheckWriteEfficiency(r, good, 1)
	if !r.AllOK() {
		t.Fatalf("clean census failed:\n%s", r)
	}
	bad := buildSnapshot(3, []access{
		{"PROGRESS", "PROGRESS[1]", 1, 1, true, 5},
		{"STOP", "STOP[2]", 2, 2, true, 1},
	})
	r2 := &Report{}
	CheckWriteEfficiency(r2, bad, 1)
	if r2.AllOK() {
		t.Fatal("extra writer passed the Theorem 3 check")
	}
}

func TestCheckBoundedExceptProgress(t *testing.T) {
	r := &Report{}
	snap := buildSnapshot(3, []access{
		{"PROGRESS", "PROGRESS[0]", 0, 0, true, 1},
		{"PROGRESS", "PROGRESS[0]", 0, 0, true, 2},
	})
	CheckBoundedExceptProgress(r, snap, 0)
	if !r.AllOK() {
		t.Fatalf("growing PROGRESS[leader] must pass:\n%s", r)
	}
	r2 := &Report{}
	snap2 := buildSnapshot(3, []access{
		{"PROGRESS", "PROGRESS[0]", 0, 0, true, 1},
		{"SUSPICIONS", "SUSPICIONS[1][0]", 1, 1, true, 3},
	})
	CheckBoundedExceptProgress(r2, snap2, 0)
	if r2.AllOK() {
		t.Fatal("growing SUSPICIONS passed the Theorem 2 check")
	}
}

func TestCheckReadersForever(t *testing.T) {
	r := &Report{}
	snap := buildSnapshot(3, []access{
		{"PROGRESS", "PROGRESS[0]", 0, 1, false, 0},
		{"PROGRESS", "PROGRESS[0]", 0, 2, false, 0},
	})
	CheckReadersForever(r, snap, 0, []bool{false, false, false})
	if !r.AllOK() {
		t.Fatalf("all-readers census failed:\n%s", r)
	}
	r2 := &Report{}
	snap2 := buildSnapshot(3, []access{
		{"PROGRESS", "PROGRESS[0]", 0, 1, false, 0},
	})
	CheckReadersForever(r2, snap2, 0, []bool{false, false, false})
	if r2.AllOK() {
		t.Fatal("silent non-leader passed the Lemma 6 check")
	}
	// A crashed process is allowed to be silent.
	r3 := &Report{}
	CheckReadersForever(r3, snap2, 0, []bool{false, false, true})
	if !r3.AllOK() {
		t.Fatalf("crashed process's silence failed Lemma 6:\n%s", r3)
	}
}

func TestCheckAllCorrectWriteForever(t *testing.T) {
	snap := buildSnapshot(3, []access{
		{"LAST", "LAST[0][1]", 1, 1, true, 1},
		{"PROGRESS", "PROGRESS[0][1]", 0, 0, true, 1},
	})
	r := &Report{}
	CheckAllCorrectWriteForever(r, snap, []bool{false, false, true})
	if !r.AllOK() {
		t.Fatalf("census failed:\n%s", r)
	}
	r2 := &Report{}
	CheckAllCorrectWriteForever(r2, snap, []bool{false, false, false})
	if r2.AllOK() {
		t.Fatal("silent correct process passed the Corollary 1 check")
	}
}

func TestCheckAlgo2WriteSet(t *testing.T) {
	leaderOnly := buildSnapshot(3, []access{
		{"PROGRESS", "PROGRESS[0][1]", 0, 0, true, 1},
		{"LAST", "LAST[0][1]", 1, 1, true, 0},
	})
	r := &Report{}
	CheckAlgo2WriteSet(r, leaderOnly, 0, []bool{false, false, false})
	if !r.AllOK() {
		t.Fatalf("Theorem 7 write set failed:\n%s", r)
	}
	rogue := buildSnapshot(3, []access{
		{"PROGRESS", "PROGRESS[2][1]", 2, 2, true, 1}, // non-leader signalling
	})
	r2 := &Report{}
	CheckAlgo2WriteSet(r2, rogue, 0, []bool{false, false, false})
	if r2.AllOK() {
		t.Fatal("rogue writer passed the Theorem 7 check")
	}
}

func TestCheckBoundedMemory(t *testing.T) {
	c := shmem.NewCensus(2, nil)
	p := c.Track("PROGRESS", "PROGRESS[0][1]", 0)
	s := c.Track("SUSPICIONS", "SUSPICIONS[1][0]", 1)
	c.NoteWrite(p, 0, 1)
	c.NoteWrite(s, 1, 2)
	stab := c.Snapshot()
	c.NoteWrite(p, 0, 0) // boolean keeps flipping: fine
	end := c.Snapshot()
	r := &Report{}
	CheckBoundedMemory(r, end, stab)
	if !r.AllOK() {
		t.Fatalf("bounded run failed:\n%s", r)
	}
	// SUSPICIONS changing after stabilization must fail.
	c.NoteWrite(s, 1, 3)
	r2 := &Report{}
	CheckBoundedMemory(r2, c.Snapshot(), stab)
	if r2.AllOK() {
		t.Fatal("post-stabilization suspicion growth passed Theorem 6 check")
	}
	// A multi-bit "boolean" register must fail.
	c2 := shmem.NewCensus(2, nil)
	wide := c2.Track("PROGRESS", "PROGRESS[0][1]", 0)
	c2.NoteWrite(wide, 0, 7)
	r3 := &Report{}
	snap := c2.Snapshot()
	CheckBoundedMemory(r3, snap, snap)
	if r3.AllOK() {
		t.Fatal("3-bit handshake register passed the 1-bit check")
	}
}

func TestCheckEventualLeadership(t *testing.T) {
	r := &Report{}
	st, leader, ok := CheckEventualLeadership(r, []Sample{sample(10, 1, 1), sample(20, 1, 1)}, []bool{false, false})
	if !ok || leader != 1 || st != 10 || !r.AllOK() {
		t.Fatalf("got (%d,%d,%v):\n%s", st, leader, ok, r)
	}
	r2 := &Report{}
	if _, _, ok := CheckEventualLeadership(r2, []Sample{sample(10, 0, 1)}, []bool{false, false}); ok || r2.AllOK() {
		t.Fatal("disagreeing run passed")
	}
}
