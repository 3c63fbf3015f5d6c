package consensus

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omegasm/internal/shmem"
)

// gatedMem wraps a memory so that one armed read of a decision register
// by process pid blocks until gate closes: a step parked inside a quorum
// round trip.
type gatedMem struct {
	shmem.Mem
	pid     int
	armed   atomic.Bool
	entered chan struct{} // closed once the armed read has blocked
	gate    chan struct{}
}

func (m *gatedMem) Word(owner int, class string, idx ...int) shmem.Reg {
	reg := m.Mem.Word(owner, class, idx...)
	if class != ClassDec {
		return reg
	}
	return gatedReg{reg, m}
}

type gatedReg struct {
	shmem.Reg
	m *gatedMem
}

func (r gatedReg) Read(pid int) uint64 {
	if pid == r.m.pid && r.m.armed.CompareAndSwap(true, false) {
		close(r.m.entered)
		<-r.m.gate
	}
	return r.Reg.Read(pid)
}

// TestTailReadersNeverWaitOutABurst: a follower's burst holds the step
// lock across its decision poll, a quorum round trip on the SAN. The
// reads a writer confirms through — VisitTail, and CommittedLen for the
// next write's start mark — must answer from the applied tail meanwhile
// instead of queueing behind that I/O.
func TestTailReadersNeverWaitOutABurst(t *testing.T) {
	const n = 3
	mem := &gatedMem{Mem: shmem.NewAtomicMem(n, false), pid: 1, entered: make(chan struct{}), gate: make(chan struct{})}
	open := sync.OnceFunc(func() { close(mem.gate) })
	defer open()
	log := plainLog(t, mem, n, 8)
	kvs := make([]*KV, n)
	for i := range kvs {
		r, err := NewReplica(log, i, func() int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if kvs[i], err = NewKV(r); err != nil {
			t.Fatal(err)
		}
	}
	leader, follower := kvs[0], kvs[1]
	stepUntil := func(kv *KV, applied int) {
		t.Helper()
		for steps := 0; kv.Applied() < applied; steps++ {
			if steps == 64 {
				t.Fatalf("store applied %d of %d commands in 64 steps", kv.Applied(), applied)
			}
			kv.Step(0)
		}
	}
	if err := leader.Set(1, 1); err != nil {
		t.Fatal(err)
	}
	stepUntil(leader, 1)
	stepUntil(follower, 1)
	if err := leader.Set(2, 2); err != nil {
		t.Fatal(err)
	}
	stepUntil(leader, 2)

	mem.armed.Store(true)
	burst := make(chan struct{})
	go func() {
		defer close(burst)
		follower.StepBurst(0, 2)
	}()
	<-mem.entered // the follower is inside slot 1's decision poll, step lock held

	type reading struct {
		visited             []uint32
		next, skipped, clen int
	}
	read := make(chan reading, 1)
	go func() {
		var r reading
		r.next, r.skipped = follower.VisitTail(0, func(c uint32) { r.visited = append(r.visited, c) })
		r.clen = follower.CommittedLen()
		read <- r
	}()
	select {
	case r := <-read:
		want := reading{visited: []uint32{EncodeSet(1, 1)}, next: 1, clen: 1}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("tail read during the parked burst = %+v, want %+v", r, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("VisitTail/CommittedLen still blocked 5s into a burst parked in register I/O")
	}
	open()
	<-burst
	if got := follower.Applied(); got != 2 {
		t.Errorf("follower applied %d commands after its burst, want 2", got)
	}
}

// TestTailReadsDuringSteps runs the tail readers on one goroutine while
// another steps the stores through appends, seal trims and a lagging
// replica's snapshot installs — every mutation the tail lock covers —
// for the race detector, and checks each reader's watermark only moves
// forward.
func TestTailReadsDuringSteps(t *testing.T) {
	const writes = 120
	kvs := newCkptKVs(t, 3, 8, 1, 2, func(int) func() int { return func() int { return 0 } })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < writes; k++ {
			if err := kvs[0].Set(uint16(k%7), uint16(k)); err != nil {
				t.Error(err)
				return
			}
		}
		for round := 0; kvs[0].Applied() < writes || kvs[2].Applied() < writes; round++ {
			if round == 200_000 {
				t.Errorf("stream stalled: applied %d, %d, %d of %d", kvs[0].Applied(), kvs[1].Applied(), kvs[2].Applied(), writes)
				return
			}
			kvs[round%2].StepBurst(0, 2)
			if round%64 == 63 { // the laggard falls behind the window and installs
				kvs[2].StepBurst(0, 8)
			}
		}
	}()
	defer func() { <-done }()
	marks := make([]int, len(kvs))
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for i, kv := range kvs {
			next, _ := kv.VisitTail(marks[i], func(uint32) {})
			if next < marks[i] {
				t.Fatalf("replica %d: VisitTail(%d) returned watermark %d", i, marks[i], next)
			}
			marks[i] = next
			if n := kv.CommittedLen(); n < next {
				t.Fatalf("replica %d: CommittedLen %d below the applied watermark %d", i, n, next)
			}
			_ = kv.Committed()
		}
	}
	if kvs[2].SnapshotInstalls() == 0 {
		t.Error("the lagging replica never installed a snapshot")
	}
}

// commitUnapplied has kv's replica commit cmd without the store applying
// it: the state between a burst's commit and its end.
func commitUnapplied(t *testing.T, kv *KV, cmd uint32) {
	t.Helper()
	kv.replica.Submit(cmd)
	for steps, n := 0, kv.replica.CommittedLen(); kv.replica.CommittedLen() == n; steps++ {
		if steps == 64 {
			t.Fatalf("command %#x not committed in 64 micro-steps", cmd)
		}
		kv.replica.step(0)
	}
}

// applyNow applies what kv's replica has committed, as a burst's end does.
func applyNow(kv *KV) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.applyCommittedLocked()
}

// TestVisitTailContract pins what a write tracker relies on: only applied
// entries are visited, the returned watermark never falls below the one
// passed in (a start mark may lead the applied prefix), prefixes a seal or
// a snapshot install summarized away are reported as skipped, and an
// identical command committed before the mark never confirms a write
// tracked from it.
func TestVisitTailContract(t *testing.T) {
	a, b := EncodeSet(1, 1), EncodeSet(2, 2)
	leaderOnly := func(int) func() int { return func() int { return 0 } }
	for _, tc := range []struct {
		name string
		// setup drives fresh stores into the case's state and returns the
		// store to visit and the watermark to visit it from.
		setup         func(t *testing.T) (kv *KV, from int)
		visited       []uint32
		next, skipped int
	}{
		{"only-applied-entries", func(t *testing.T) (*KV, int) {
			kv := newKVs(t, 3, 8, leaderOnly)[0]
			commitUnapplied(t, kv, a)
			applyNow(kv)
			commitUnapplied(t, kv, b)
			return kv, 0
		}, []uint32{a}, 1, 0},
		{"mark-leads-applied", func(t *testing.T) (*KV, int) {
			kv := newKVs(t, 3, 8, leaderOnly)[0]
			commitUnapplied(t, kv, a)
			applyNow(kv)
			commitUnapplied(t, kv, b)
			return kv, kv.CommittedLen()
		}, nil, 2, 0},
		{"historical-duplicate", func(t *testing.T) (*KV, int) {
			kv := newKVs(t, 3, 8, leaderOnly)[0]
			commitUnapplied(t, kv, a)
			// A tracker's start mark and first scan, both while the
			// historical a is committed but not yet applied.
			mark, _ := kv.VisitTail(kv.CommittedLen(), func(uint32) {
				t.Error("first scan from the start mark visited an entry")
			})
			applyNow(kv)
			commitUnapplied(t, kv, a) // the tracked write
			applyNow(kv)
			return kv, mark
		}, []uint32{a}, 2, 0},
		{"seal-trim", func(t *testing.T) (*KV, int) {
			// Seals at slot 2: the leader's tail drops w0 and w1, keeps w2.
			kv := newCkptKVs(t, 3, 8, 1, 2, leaderOnly)[0]
			for k := uint16(0); k < 4; k++ {
				if err := kv.Set(k, k); err != nil {
					t.Fatal(err)
				}
			}
			for steps := 0; kv.Applied() < 3; steps++ {
				if steps == 256 {
					t.Fatal("leader did not apply three writes")
				}
				kv.Step(0)
			}
			return kv, 0
		}, []uint32{EncodeSet(2, 2)}, 3, 2},
		{"snapshot-install", func(t *testing.T) (*KV, int) {
			// Replicas 0 and 1 seal at slots 2, 5 and 8 (summarizing 2, 4
			// and 6 commands) and recycle; replica 2 wakes behind the window
			// and installs the newest snapshot.
			kvs := newCkptKVs(t, 3, 8, 1, 2, leaderOnly)
			for k := uint16(0); k < 6; k++ {
				if err := kvs[0].Set(k, k); err != nil {
					t.Fatal(err)
				}
			}
			for steps := 0; kvs[0].Checkpoints() < 3 || kvs[1].Checkpoints() < 3; steps++ {
				if steps == 4096 {
					t.Fatal("replicas 0 and 1 did not pass three checkpoints")
				}
				kvs[steps%2].Step(0)
			}
			for steps := 0; kvs[2].SnapshotInstalls() == 0; steps++ {
				if steps == 64 {
					t.Fatal("lagging replica never installed a snapshot")
				}
				kvs[2].Step(0)
			}
			return kvs[2], 0
		}, nil, 6, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kv, from := tc.setup(t)
			var visited []uint32
			next, skipped := kv.VisitTail(from, func(c uint32) { visited = append(visited, c) })
			if !reflect.DeepEqual(visited, tc.visited) || next != tc.next || skipped != tc.skipped {
				t.Errorf("VisitTail(%d) visited %#x, returned (%d, %d); want %#x, (%d, %d)",
					from, visited, next, skipped, tc.visited, tc.next, tc.skipped)
			}
		})
	}
}
