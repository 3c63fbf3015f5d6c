// Package shmem provides the shared-memory substrate of the reproduction:
// atomic registers in the style of the paper's base model AS[n,emptyset].
//
// The paper's processes communicate only by reading and writing
// one-writer/multi-reader (1WnR) atomic registers. This package models a
// register as a 64-bit word (booleans are encoded as 0/1) and offers three
// interchangeable implementations behind the Mem/Reg interfaces:
//
//   - SimMem: plain words plus full instrumentation, for the deterministic
//     virtual-time engine (engine.Sim), which serializes all accesses on
//     a single goroutine so linearizability is trivial.
//   - AtomicMem (atomic.go): sync/atomic-backed registers for the live
//     goroutine runtime (package rt).
//   - san.DiskMem (package san): registers replicated over simulated
//     network-attached disks, the paper's motivating deployment.
//
// Every access is attributed to the accessing process identity so that the
// experiment harness can regenerate the paper's write/read censuses
// (Theorems 3 and 7, Lemmas 5 and 6) and boundedness verdicts
// (Theorems 2 and 6).
package shmem

import "fmt"

// MultiWriter is the Owner value of a register that any process may write
// (the paper's nWnR variant, Section 3.5).
const MultiWriter = -1

// Reg is a single atomic register holding a uint64.
//
// Read and Write take the identity of the accessing process so that the
// substrate can attribute the access in the census. For 1WnR registers,
// Write panics if pid is not the owner: in the paper's model a write by a
// non-owner is a malformed algorithm, not a run-time condition, so it is a
// programming error here as well.
type Reg interface {
	// Read returns the current value, attributing the access to pid.
	Read(pid int) uint64
	// Write stores v, attributing the access to pid. pid must be the
	// owner unless the register is multi-writer.
	Write(pid int, v uint64)
	// Owner returns the writing process, or MultiWriter.
	Owner() int
	// Name returns the register's display name, e.g. "SUSPICIONS[2][3]".
	Name() string
}

// Mem allocates registers and carries the census shared by all registers it
// creates. A Mem instance represents one shared memory, i.e. one run.
type Mem interface {
	// Word allocates a fresh register. class is the register family
	// ("PROGRESS", "STOP", ...); idx are the paper's subscripts. owner is
	// the writing process or MultiWriter.
	Word(owner int, class string, idx ...int) Reg
	// Census returns the access census for all registers of this memory.
	// It may return nil if the implementation does not record accesses.
	Census() *Census
}

// Discarder is implemented by memories that can release a register's
// backing resources (census accounting, disk blocks) once the register
// is permanently dead. Recycling logs call it for the per-epoch
// registers of sealed, reclaimed slots; the register's name must never
// be allocated again afterwards. Memories without reclaimable backing
// simply do not implement it.
type Discarder interface {
	// Discard releases reg's backing resources.
	Discard(reg Reg)
}

// DiscardIfPossible releases reg's backing resources when mem supports
// reclamation.
func DiscardIfPossible(mem Mem, reg Reg) {
	if d, ok := mem.(Discarder); ok {
		d.Discard(reg)
	}
}

// RowAllocator is implemented by memories that can bulk-allocate rows
// of same-class registers: CLASS[tag][i] for i in [0, n), each owned by
// process i — the shape of one consensus instance's register arrays.
// Bulk allocation lets the implementation use one contiguous backing
// array for a whole block of rows, which matters on recycling logs: the
// window advances a checkpoint interval at a time and re-registers
// every reclaimed slot, so per-register allocation there is
// steady-state commit-path churn. Semantically WordRowBlock(class,
// tag0, k, n) is exactly the k*n Word calls Word(i, class, tag0+j, i);
// memories without a cheaper bulk path simply do not implement it.
type RowAllocator interface {
	// WordRowBlock allocates rows CLASS[tag0+j][0..n-1] for j in
	// [0, k); row j's register i is owned by process i.
	WordRowBlock(class string, tag0, k, n int) [][]Reg
}

// WordRow allocates one row of registers CLASS[tag][0..n-1] (register i
// owned by process i) through mem's bulk path when it has one, and
// register by register otherwise.
func WordRow(mem Mem, class string, tag, n int) []Reg {
	if ra, ok := mem.(RowAllocator); ok {
		return ra.WordRowBlock(class, tag, 1, n)[0]
	}
	row := make([]Reg, n)
	for i := range row {
		row[i] = mem.Word(i, class, tag, i)
	}
	return row
}

// WordRowBlock allocates k rows CLASS[tag0+j][0..n-1] through mem's
// bulk path when it has one, and row by row otherwise.
func WordRowBlock(mem Mem, class string, tag0, k, n int) [][]Reg {
	if ra, ok := mem.(RowAllocator); ok {
		return ra.WordRowBlock(class, tag0, k, n)
	}
	rows := make([][]Reg, k)
	for j := range rows {
		row := make([]Reg, n)
		for i := range row {
			row[i] = mem.Word(i, class, tag0+j, i)
		}
		rows[j] = row
	}
	return rows
}

// RowReader is implemented by memories where every register access is a
// round trip (quorum disk I/O) and one round trip can carry the reads of
// whole rows. The batch is purely a transport saving: each register is
// read with exactly the semantics of its own Read — same freshness
// guarantee, same census attribution (one read per register) — and no
// atomicity across registers is promised or needed. Memories whose reads
// are cheap simply do not implement it.
type RowReader interface {
	// ReadRow reads regs[i] into out[i] for every i on behalf of pid.
	// regs is one or more whole rows as WordRowBlock returned them, end to
	// end; len(out) >= len(regs).
	ReadRow(pid int, regs []Reg, out []uint64)
}

// ReadRow reads regs[i] into out[i] for every i on behalf of pid: through
// mem's batched path when it has one, and register by register in slice
// order, each exactly once, otherwise.
func ReadRow(mem Mem, pid int, regs []Reg, out []uint64) {
	if rr, ok := mem.(RowReader); ok {
		rr.ReadRow(pid, regs, out)
		return
	}
	for i, r := range regs {
		out[i] = r.Read(pid)
	}
}

// RegName renders the canonical display name of a register.
func RegName(class string, idx ...int) string {
	switch len(idx) {
	case 0:
		return class
	case 1:
		return fmt.Sprintf("%s[%d]", class, idx[0])
	case 2:
		return fmt.Sprintf("%s[%d][%d]", class, idx[0], idx[1])
	default:
		s := class
		for _, i := range idx {
			s += fmt.Sprintf("[%d]", i)
		}
		return s
	}
}

// Bool helpers: the paper's STOP, PROGRESS[i][k] and LAST[i][k] registers
// are boolean; we encode them in the low bit of the word.

// B2W encodes a boolean into a register word.
func B2W(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// W2B decodes a register word into a boolean.
func W2B(w uint64) bool { return w != 0 }
