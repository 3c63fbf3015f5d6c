package shmem

import "fmt"

// SimMem is the simulation shared memory: plain words plus a census.
//
// It is intentionally not safe for concurrent use. The virtual-time
// engine (engine.Sim) runs all process steps on one goroutine, so every
// register access is trivially linearized in event order, which is
// exactly the atomicity granted by the paper's model: the linearization
// point of each operation is the engine tick at which it runs.
type SimMem struct {
	census *Census
}

var _ Mem = (*SimMem)(nil)

// NewSimMem creates a simulation memory for n processes.
func NewSimMem(n int) *SimMem {
	return &SimMem{census: NewCensus(n, nil)}
}

// Word allocates an instrumented register initialized to zero.
func (m *SimMem) Word(owner int, class string, idx ...int) Reg {
	name := RegName(class, idx...)
	st := m.census.Track(class, name, owner)
	return &simReg{
		owner:  owner,
		name:   name,
		census: m.census,
		stats:  st,
	}
}

// Census returns the memory's access census.
func (m *SimMem) Census() *Census { return m.census }

// Discard drops a dead register's census accounting (the word itself is
// garbage-collected with the register object).
func (m *SimMem) Discard(reg Reg) { m.census.Forget(reg.Name()) }

var _ Discarder = (*SimMem)(nil)

type simReg struct {
	owner  int
	name   string
	value  uint64
	census *Census
	stats  *RegStats
}

var _ Reg = (*simReg)(nil)

func (r *simReg) Read(pid int) uint64 {
	r.census.NoteRead(r.stats, pid)
	return r.value
}

func (r *simReg) Write(pid int, v uint64) {
	if r.owner != MultiWriter && pid != r.owner {
		panic(fmt.Sprintf("shmem: process %d wrote 1WnR register %s owned by %d", pid, r.name, r.owner))
	}
	r.census.NoteWrite(r.stats, pid, v)
	r.value = v
}

func (r *simReg) Owner() int   { return r.owner }
func (r *simReg) Name() string { return r.name }

// Seed installs an arbitrary initial value without counting it as a write,
// supporting the paper's self-stabilization claim (footnote 7: initial
// register values may be arbitrary).
func (r *simReg) Seed(v uint64) {
	r.value = v
	r.census.SeedValue(r.stats, v)
}

// Seeder is implemented by registers that support installing an arbitrary
// initial value outside of the algorithm's write discipline.
type Seeder interface {
	Seed(v uint64)
}

// SeedIfPossible installs v as the initial value of r when supported.
func SeedIfPossible(r Reg, v uint64) {
	if s, ok := r.(Seeder); ok {
		s.Seed(v)
	}
}
