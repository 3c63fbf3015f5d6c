package rt_test

import (
	"sync"
	"testing"
	"time"

	"omegasm/internal/core"
	"omegasm/internal/rt"
	"omegasm/internal/shmem"
)

func liveCluster(t *testing.T, n int, algo string) (*rt.Runtime, *shmem.AtomicMem) {
	t.Helper()
	mem := shmem.NewAtomicMem(n, true)
	var procs []core.Proc
	switch algo {
	case "algo1":
		procs = core.Procs(core.BuildAlgo1(mem, n))
	case "algo2":
		procs = core.Procs(core.BuildAlgo2(mem, n))
	default:
		t.Fatalf("unknown algo %q", algo)
	}
	r, err := rt.New(rt.Config{
		StepInterval: 100 * time.Microsecond,
		TimerUnit:    time.Millisecond,
	}, procs)
	if err != nil {
		t.Fatal(err)
	}
	return r, mem
}

func TestRTValidation(t *testing.T) {
	if _, err := rt.New(rt.Config{}, nil); err == nil {
		t.Error("empty process list accepted")
	}
}

func TestRTStartTwiceFails(t *testing.T) {
	r, _ := liveCluster(t, 2, "algo1")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err == nil {
		t.Error("second Start accepted")
	}
}

func TestRTStopIdempotent(t *testing.T) {
	r, _ := liveCluster(t, 2, "algo1")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	r.Stop() // must not panic or deadlock
}

func TestRTElectsLive(t *testing.T) {
	for _, algo := range []string{"algo1", "algo2"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			r, _ := liveCluster(t, 4, algo)
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			leader, ok := r.WaitForAgreement(10 * time.Second)
			if !ok {
				t.Fatal("no agreement within 10s")
			}
			if leader < 0 || leader >= 4 || r.Crashed(leader) {
				t.Fatalf("bad leader %d", leader)
			}
		})
	}
}

func TestRTCrashAndReElect(t *testing.T) {
	r, mem := liveCluster(t, 4, "algo1")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	leader, ok := r.WaitForAgreement(10 * time.Second)
	if !ok {
		t.Fatal("no initial agreement")
	}
	if err := r.Crash(leader); err != nil {
		t.Fatal(err)
	}
	if !r.Crashed(leader) {
		t.Fatal("Crashed() false after Crash")
	}
	next, ok := r.WaitForAgreement(20 * time.Second)
	if !ok {
		t.Fatal("no re-election after crash")
	}
	if next == leader {
		t.Fatalf("crashed process %d re-elected", leader)
	}
	// The crashed process must stop writing: snapshot twice and compare.
	before := mem.Census().Snapshot()
	time.Sleep(50 * time.Millisecond)
	diff := mem.Census().Snapshot().Diff(before)
	for _, reg := range diff.Regs {
		if reg.WritesBy[leader] > 0 {
			t.Fatalf("crashed process still writing %s", reg.Name)
		}
	}
}

func TestRTCrashInvalidPid(t *testing.T) {
	r, _ := liveCluster(t, 2, "algo1")
	if err := r.Crash(-1); err == nil {
		t.Error("Crash(-1) accepted")
	}
	if err := r.Crash(99); err == nil {
		t.Error("Crash(99) accepted")
	}
	if _, err := r.Leader(99); err == nil {
		t.Error("Leader(99) accepted")
	}
	if !r.Crashed(99) {
		t.Error("out-of-range process must read as crashed")
	}
}

// TestRTWriteEfficiencyLive reproduces Theorem 3 on the live runtime:
// once agreement holds for a while, only the leader writes.
func TestRTWriteEfficiencyLive(t *testing.T) {
	r, mem := liveCluster(t, 3, "algo1")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	leader, ok := r.WaitForAgreement(10 * time.Second)
	if !ok {
		t.Fatal("no agreement")
	}
	// Let the anarchy fully drain, then census settled windows. A loaded
	// machine can churn leadership mid-window (a suspicion timeout fires),
	// which legitimately adds writers — Theorem 3 speaks only about
	// windows with stable leadership — so retry a few windows and demand
	// one clean one. A real write-efficiency regression (a non-leader
	// writing in steady state) dirties every window and still fails.
	time.Sleep(200 * time.Millisecond)
	var writers []int
	for attempt := 0; attempt < 5; attempt++ {
		leader, ok = r.WaitForAgreement(5 * time.Second)
		if !ok {
			t.Fatal("agreement lost and not regained")
		}
		before := mem.Census().Snapshot()
		time.Sleep(100 * time.Millisecond)
		diff := mem.Census().Snapshot().Diff(before)
		writers = diff.Writers()
		if l2, ok := r.AgreedLeader(); !ok || l2 != leader {
			continue // churned mid-window: void, retry
		}
		if len(writers) == 1 && writers[0] == leader {
			return
		}
	}
	t.Errorf("no settled window with writers = [leader] in 5 attempts; last writers = %v, leader %d", writers, leader)
}

// TestRTLeaderQueriesLockFree hammers Leader/AgreedLeader/Crashed from
// many goroutines while the cluster runs and a crash happens mid-stream:
// the queries read published atomics, so under -race this proves the
// oracle fast path never races with the algorithm's tasks.
func TestRTLeaderQueriesLockFree(t *testing.T) {
	r, _ := liveCluster(t, 4, "algo1")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	leader, ok := r.WaitForAgreement(10 * time.Second)
	if !ok {
		t.Fatal("no agreement")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if l, err := r.Leader((g + i) % 4); err != nil || l < 0 || l >= 4 {
					t.Errorf("Leader = %d, %v", l, err)
					return
				}
				r.AgreedLeader()
				r.Crashed(i % 4)
			}
		}(g)
	}
	if err := r.Crash(leader); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.WaitForAgreement(20 * time.Second); !ok {
		t.Fatal("no re-election under query load")
	}
	close(stop)
	wg.Wait()
}

func TestRTTimerFreeVariantLive(t *testing.T) {
	mem := shmem.NewAtomicMem(3, false)
	r, err := rt.New(rt.Config{StepInterval: 50 * time.Microsecond}, core.Procs(core.BuildTimerFree(mem, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if _, ok := r.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("timer-free variant did not agree live")
	}
}
