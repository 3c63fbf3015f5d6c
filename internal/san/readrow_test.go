package san

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omegasm/internal/shmem"
)

// drain waits until every disk has served everything queued before the
// call: a pump is FIFO, so an acknowledged marker means all earlier
// requests — straggler writes of finished quorum calls included — landed.
func drain(ds []*Disk) {
	c := getCall(len(ds))
	for i, d := range ds {
		op := &c.ops[i]
		op.kind, op.name, op.submitted = opRead, "drain", time.Now()
		d.enqueue(op)
	}
	for range ds {
		<-c.done
	}
	c.release()
}

// blockOnAnyDisk reports whether some live disk still stores the block.
func blockOnAnyDisk(ds []*Disk, name string) bool {
	for _, d := range ds {
		d.mu.Lock()
		_, ok := d.blocks[name]
		ok = ok && !d.crashed // a crashed disk keeps what it had
		d.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// TestReadRowMatchesRegisterReads is the batched read's contract: under
// concurrent single-writer writes, a ReadRow of two rows of different
// blocks (a scan's shape) is per register exactly what the register's own
// Read promises — never older than the
// writer's last completed write, never a value the writer has not started
// writing, monotone per handle — with a minority of disks crashed mid-run
// and one register of the row reclaimed mid-run (it reads 0 from then on
// and its blocks are not re-created), and the census counts one read per
// register per reader. Run under -race: the request's name list is read
// by straggler disks after the call returned.
func TestReadRowMatchesRegisterReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		lat  Latency
	}{
		{"ideal-disks", Latency{}},
		{"jittered-disks", Latency{Base: 20 * time.Microsecond, Jitter: 200 * time.Microsecond}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const n, regs, writes, readers = 3, 6, 60, 2
			ds := make([]*Disk, 5)
			for i := range ds {
				ds[i] = NewDisk(tc.lat, int64(i+1))
			}
			m, err := NewDiskMem(n+readers, ds)
			if err != nil {
				t.Fatal(err)
			}
			// The second row of each block, so a name window is not at offset 0.
			row := append(append([]shmem.Reg(nil),
				m.WordRowBlock("MBAL", 40, 2, n)[1]...), m.WordRowBlock("BALINP", 40, 2, n)[1]...)
			const victim = 4 // reclaimed mid-run

			var started, done [regs]atomic.Uint64
			var discarding, discarded atomic.Bool // set around the Discard call
			var wg, writers sync.WaitGroup
			stop := make(chan struct{})
			for i := 0; i < regs; i++ {
				i := i
				writers.Add(1)
				go func() {
					defer writers.Done()
					for v := uint64(1); v <= writes; v++ {
						started[i].Store(v)
						row[i].Write(i%n, v)
						done[i].Store(v)
						switch {
						case i == 0 && v == writes/3:
							ds[0].Crash()
							ds[3].Crash()
						case i == victim && v == writes/2:
							// A log reclaims a slot long after its last write;
							// here the stragglers of the write just acknowledged
							// must land first, or they re-create the block.
							drain(ds)
							discarding.Store(true)
							m.Discard(row[victim])
							discarded.Store(true)
						}
					}
				}()
			}
			var rounds [readers]int
			for k := 0; k < readers; k++ {
				k, pid := k, n+k
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]uint64, regs)
					var last, lo [regs]uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						wasDead := discarded.Load()
						for i := range lo {
							lo[i] = done[i].Load()
						}
						m.ReadRow(pid, row, out)
						rounds[k]++
						for i, v := range out {
							if i == victim && (wasDead || (v == 0 && discarding.Load())) {
								if v != 0 {
									t.Errorf("reader %d: reclaimed register read %d, want 0", pid, v)
									return
								}
								continue
							}
							if hi := started[i].Load(); v < lo[i] || v > hi {
								t.Errorf("reader %d: %s = %d, outside [last completed %d, last started %d]",
									pid, row[i].Name(), v, lo[i], hi)
								return
							}
							if v < last[i] {
								t.Errorf("reader %d: %s went backwards: %d after %d", pid, row[i].Name(), v, last[i])
								return
							}
							last[i] = v
						}
					}
				}()
			}
			writers.Wait()
			close(stop)
			wg.Wait()

			// Quiescent: the batch equals the register-by-register reads.
			got, want := make([]uint64, regs), []uint64{writes, writes, writes, writes, 0, writes}
			m.ReadRow(n, row, got)
			rounds[0]++
			for i := range row {
				if single := row[i].Read(n + 1); got[i] != want[i] || single != want[i] {
					t.Errorf("%s: ReadRow %d, Read %d, want %d", row[i].Name(), got[i], single, want[i])
				}
			}
			if blockOnAnyDisk(ds, row[victim].Name()) {
				t.Errorf("reclaimed register %s has a block again", row[victim].Name())
			}
			// One read per live register per ReadRow (the reclaimed one
			// left the census with Discard); reader n+1 made only the
			// single reads above.
			snap := m.Census().Snapshot()
			for _, i := range []int{0, 2, 3, 5} {
				rs := snap.Regs[row[i].Name()]
				for k := 0; k < readers; k++ {
					want := uint64(rounds[k])
					if k == 1 {
						want++
					}
					if rs.ReadsBy[n+k] != want {
						t.Errorf("census: reader %d read %s %d times in %d rounds", n+k, row[i].Name(), rs.ReadsBy[n+k], want)
					}
				}
			}
		})
	}
}

// TestReadRowFallsBackOffTheRowShape: anything but whole rows of the
// memory end to end — a partial row, a row with a stranger in it, a row
// of another memory — is read register by register, with the same
// answers; registers allocated alone are rows of one.
func TestReadRowFallsBackOffTheRowShape(t *testing.T) {
	m, _ := newMem(t, 3, 3)
	other, _ := newMem(t, 3, 3)
	row := m.WordRowBlock("MBAL", 0, 1, 3)[0]
	foreign := other.WordRowBlock("MBAL", 0, 1, 3)[0]
	lone := []shmem.Reg{m.Word(0, "X", 0), m.Word(1, "X", 1)}
	for i, r := range row {
		r.Write(i, uint64(10+i))
		foreign[i].Write(i, uint64(20+i))
	}
	lone[0].Write(0, 7)
	lone[1].Write(1, 8)
	for _, tc := range []struct {
		name string
		row  []shmem.Reg
		want []uint64
	}{
		{"whole-row", row, []uint64{10, 11, 12}},
		{"row-twice", append(append([]shmem.Reg(nil), row...), row...), []uint64{10, 11, 12, 10, 11, 12}},
		{"row-then-lone", append(append([]shmem.Reg(nil), row...), lone...), []uint64{10, 11, 12, 7, 8}},
		{"partial-row", row[1:], []uint64{11, 12}},
		{"mixed", []shmem.Reg{row[0], lone[1], row[2]}, []uint64{10, 8, 12}},
		{"lone-registers", lone, []uint64{7, 8}},
		{"foreign-row", foreign, []uint64{20, 21, 22}},
		{"empty", nil, nil},
	} {
		out := make([]uint64, len(tc.row))
		m.ReadRow(2, tc.row, out)
		for i := range out {
			if out[i] != tc.want[i] {
				t.Errorf("%s: out[%d] = %d, want %d", tc.name, i, out[i], tc.want[i])
			}
		}
	}
}

// TestReadRowSteadyStateZeroAllocs: the gather runs once per consensus
// micro-step per replica, so it must recycle its call object, result
// buffers and sequence scratch instead of allocating. The rows read are a
// consensus slot's three (MBAL, BALINP, DEC), a leader's micro-step.
func TestReadRowSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items at random under the race detector")
	}
	for _, count := range []bool{true, false} {
		ds := fastDisks(5)
		m, err := newDiskMem(3, ds, count)
		if err != nil {
			t.Fatal(err)
		}
		var row []shmem.Reg
		for _, class := range []string{"MBAL", "BALINP", "DEC"} {
			row = append(row, m.WordRowBlock(class, 0, 1, 3)[0]...)
		}
		row[1].Write(1, 9)
		out := make([]uint64, len(row))
		// A call object returns to its pool only when its straggler disks
		// have acknowledged, so how many exist depends on how far the
		// slowest pump lags. Draining after every read pins that depth —
		// the read's call and the drain's — and makes the count exact.
		read := func() {
			m.ReadRow(0, row, out)
			drain(ds)
		}
		for i := 0; i < 100; i++ {
			read() // warm the pools and each call's gather buffers
		}
		if avg := testing.AllocsPerRun(200, read); avg != 0 {
			t.Errorf("counting=%v: ReadRow allocates %.2f objects per call, want 0", count, avg)
		}
		if out[1] != 9 {
			t.Errorf("counting=%v: out = %v", count, out)
		}
	}
}

// TestReadRowMajorityLossPanicsNoQuorum: a batched read that cannot reach
// a majority of disks fails as a single register's read does.
func TestReadRowMajorityLossPanicsNoQuorum(t *testing.T) {
	m, ds := newMem(t, 3, 3)
	row := m.WordRowBlock("DEC", 0, 1, 3)[0]
	row[0].Write(0, 1)
	ds[0].Crash()
	ds[2].Crash()
	defer func() {
		err, ok := recover().(error)
		if !ok || !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("panic value %v, want ErrNoQuorum", err)
		}
	}()
	m.ReadRow(1, row, make([]uint64, len(row)))
}
