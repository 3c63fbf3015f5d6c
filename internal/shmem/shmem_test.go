package shmem

import (
	"testing"
	"testing/quick"
)

func TestRegName(t *testing.T) {
	tests := []struct {
		class string
		idx   []int
		want  string
	}{
		{"PROGRESS", nil, "PROGRESS"},
		{"PROGRESS", []int{3}, "PROGRESS[3]"},
		{"SUSPICIONS", []int{2, 7}, "SUSPICIONS[2][7]"},
		{"X", []int{1, 2, 3}, "X[1][2][3]"},
	}
	for _, tc := range tests {
		if got := RegName(tc.class, tc.idx...); got != tc.want {
			t.Errorf("RegName(%q, %v) = %q, want %q", tc.class, tc.idx, got, tc.want)
		}
	}
}

func TestBoolEncoding(t *testing.T) {
	if B2W(true) != 1 || B2W(false) != 0 {
		t.Fatalf("B2W broken: true=%d false=%d", B2W(true), B2W(false))
	}
	if !W2B(1) || W2B(0) {
		t.Fatalf("W2B broken")
	}
	if !W2B(42) {
		t.Errorf("W2B must treat any nonzero word as true")
	}
	// Round trip property.
	f := func(b bool) bool { return W2B(B2W(b)) == b }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimMemReadWrite(t *testing.T) {
	m := NewSimMem(3)
	r := m.Word(1, "PROGRESS", 1)
	if got := r.Read(0); got != 0 {
		t.Fatalf("fresh register reads %d, want 0", got)
	}
	r.Write(1, 42)
	if got := r.Read(2); got != 42 {
		t.Fatalf("read %d after write 42", got)
	}
	if r.Owner() != 1 {
		t.Errorf("Owner() = %d, want 1", r.Owner())
	}
	if r.Name() != "PROGRESS[1]" {
		t.Errorf("Name() = %q", r.Name())
	}
}

func TestSimMemOwnershipPanic(t *testing.T) {
	m := NewSimMem(3)
	r := m.Word(1, "STOP", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("write by non-owner must panic (1WnR discipline)")
		}
	}()
	r.Write(2, 1)
}

func TestMultiWriterAllowsAnyWriter(t *testing.T) {
	m := NewSimMem(3)
	r := m.Word(MultiWriter, "NSUSP", 0)
	r.Write(0, 1)
	r.Write(1, 2)
	r.Write(2, 3)
	if got := r.Read(0); got != 3 {
		t.Fatalf("read %d, want 3", got)
	}
}

func TestSeedDoesNotCountAsWrite(t *testing.T) {
	m := NewSimMem(2)
	r := m.Word(0, "PROGRESS", 0)
	SeedIfPossible(r, 99)
	if got := r.Read(1); got != 99 {
		t.Fatalf("seeded value not visible: %d", got)
	}
	snap := m.Census().Snapshot()
	rs := snap.Regs["PROGRESS[0]"]
	if rs.TotalWrites() != 0 {
		t.Errorf("seed counted as write: %d", rs.TotalWrites())
	}
	if rs.MaxValue != 99 {
		t.Errorf("seed not reflected in MaxValue: %d", rs.MaxValue)
	}
}

func TestWordSameNameSharesStats(t *testing.T) {
	m := NewSimMem(2)
	a := m.Word(0, "X", 0)
	b := m.Word(0, "X", 0)
	a.Write(0, 1)
	b.Write(0, 2)
	snap := m.Census().Snapshot()
	if got := snap.Regs["X[0]"].TotalWrites(); got != 2 {
		t.Errorf("same-name registers must share census stats: writes=%d, want 2", got)
	}
}

// orderReg records which register was read, in order, into a shared log.
type orderReg struct {
	Reg
	id  int
	log *[]int
}

func (r orderReg) Read(pid int) uint64 {
	*r.log = append(*r.log, r.id)
	return r.Reg.Read(pid)
}

// batchMem is a memory with the batched-read capability; it answers
// every register with a marker so the test can tell which path ran.
type batchMem struct{ *SimMem }

func (batchMem) ReadRow(pid int, row []Reg, out []uint64) {
	for i := range row {
		out[i] = 99
	}
}

// TestReadRowFallback: on a memory without the batched-read capability
// ReadRow is the register-by-register loop it replaces — every register of
// the row exactly once, in slice order, attributed to the reader — so the
// deterministic simulator and atomic memory see the access sequence they
// always saw. A memory that has the capability is handed the whole row.
func TestReadRowFallback(t *testing.T) {
	mem := NewSimMem(4)
	var order []int
	row := make([]Reg, 4)
	for i := range row {
		reg := mem.Word(i, "DEC", 0, i)
		reg.Write(i, uint64(10*i))
		row[i] = orderReg{reg, i, &order}
	}
	out := make([]uint64, len(row))
	ReadRow(mem, 3, row, out)
	for i := range row {
		if out[i] != uint64(10*i) {
			t.Errorf("out[%d] = %d, want %d", i, out[i], 10*i)
		}
		if i >= len(order) || order[i] != i {
			t.Fatalf("registers visited in order %v, want each once in slice order", order)
		}
	}
	if len(order) != len(row) {
		t.Fatalf("registers visited in order %v, want each once in slice order", order)
	}
	snap := mem.Census().Snapshot()
	for i := range row {
		if got := snap.Regs[RegName("DEC", 0, i)].ReadsBy[3]; got != 1 {
			t.Errorf("census: DEC[0][%d] read %d times by process 3, want 1", i, got)
		}
	}

	order = order[:0]
	ReadRow(batchMem{mem}, 3, row, out)
	if len(order) != 0 || out[0] != 99 || out[3] != 99 {
		t.Errorf("a RowReader memory must serve the row itself: visited %v, out %v", order, out)
	}
}
