package shmem

import (
	"sync"
	"testing"
)

// TestCensusConcurrentCounts hammers the census from n goroutines (one per
// process identity, the 1WnR discipline: each pid writes only its own
// register but reads everyone's) and checks that no increment is lost.
// Run under -race this also proves the hot paths are data-race free.
func TestCensusConcurrentCounts(t *testing.T) {
	const (
		n   = 8
		ops = 5000
	)
	c := NewCensus(n, nil)
	regs := make([]*RegStats, n)
	for i := 0; i < n; i++ {
		regs[i] = c.Track("X", RegName("X", i), i)
	}
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := 0; k < ops; k++ {
				c.NoteWrite(regs[pid], pid, uint64(k))
				for j := 0; j < n; j++ {
					c.NoteRead(regs[j], pid)
				}
			}
		}(pid)
	}
	wg.Wait()
	snap := c.Snapshot()
	for i := 0; i < n; i++ {
		r := snap.Regs[RegName("X", i)]
		if got := r.WritesBy[i]; got != ops {
			t.Errorf("reg %d: writes by owner = %d, want %d", i, got, ops)
		}
		if got := r.TotalReads(); got != uint64(n*ops) {
			t.Errorf("reg %d: total reads = %d, want %d", i, got, n*ops)
		}
		if r.MaxValue != ops-1 {
			t.Errorf("reg %d: max = %d, want %d", i, r.MaxValue, ops-1)
		}
		// Single-writer register with strictly increasing values: distinct
		// counting is exact.
		if r.DistinctValues != ops {
			t.Errorf("reg %d: distinct = %d, want %d", i, r.DistinctValues, ops)
		}
	}
}

// TestCensusConcurrentMultiWriter checks that per-process write counts and
// the CAS-raised maximum stay exact on a multi-writer register even when
// every process writes it concurrently. (DistinctValues is documented as
// approximate in this regime, so it is not asserted.)
func TestCensusConcurrentMultiWriter(t *testing.T) {
	const (
		n   = 8
		ops = 5000
	)
	c := NewCensus(n, nil)
	st := c.Track("M", "M", MultiWriter)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := 0; k < ops; k++ {
				c.NoteWrite(st, pid, uint64(pid*ops+k))
			}
		}(pid)
	}
	wg.Wait()
	r := c.Snapshot().Regs["M"]
	for p := 0; p < n; p++ {
		if r.WritesBy[p] != ops {
			t.Errorf("writes by %d = %d, want %d", p, r.WritesBy[p], ops)
		}
	}
	if want := uint64((n-1)*ops + ops - 1); r.MaxValue != want {
		t.Errorf("max = %d, want %d", r.MaxValue, want)
	}
}

// TestCensusConcurrentWriteLog checks the sharded write log merges back
// into one totally ordered sequence: global order tickets are strictly
// increasing in the merged log and no event is lost.
func TestCensusConcurrentWriteLog(t *testing.T) {
	const (
		n   = 4
		ops = 2000
	)
	c := NewCensus(n, nil)
	c.LogWrites("P")
	regs := make([]*RegStats, n)
	for i := 0; i < n; i++ {
		regs[i] = c.Track("P", RegName("P", i), i)
	}
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := 0; k < ops; k++ {
				c.NoteWrite(regs[pid], pid, uint64(k))
			}
		}(pid)
	}
	wg.Wait()
	log := c.WriteLog()
	if len(log) != n*ops {
		t.Fatalf("log has %d events, want %d", len(log), n*ops)
	}
	perPid := make(map[int]uint64)
	for i, ev := range log {
		if i > 0 && log[i-1].seq >= ev.seq {
			t.Fatalf("log not in global order at %d: seq %d then %d", i, log[i-1].seq, ev.seq)
		}
		// Each process's own events must appear in its program order.
		if ev.Value != perPid[ev.Pid] {
			t.Fatalf("pid %d events out of program order: got value %d, want %d", ev.Pid, ev.Value, perPid[ev.Pid])
		}
		perPid[ev.Pid]++
	}
}

// TestCensusSnapshotDuringWrites takes snapshots while writers run; each
// observed counter must be monotone between successive snapshots, and the
// final snapshot exact.
func TestCensusSnapshotDuringWrites(t *testing.T) {
	const ops = 20000
	c := NewCensus(2, nil)
	st := c.Track("P", "P[0]", 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < ops; k++ {
			c.NoteWrite(st, 0, uint64(k))
		}
	}()
	var last uint64
	for i := 0; i < 100; i++ {
		w := c.Snapshot().Regs["P[0]"].WritesBy[0]
		if w < last {
			t.Fatalf("write count went backwards: %d after %d", w, last)
		}
		last = w
	}
	<-done
	if got := c.Snapshot().Regs["P[0]"].WritesBy[0]; got != ops {
		t.Fatalf("final writes = %d, want %d", got, ops)
	}
}
