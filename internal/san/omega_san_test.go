package san_test

import (
	"testing"
	"time"

	"omegasm/internal/core"
	"omegasm/internal/rt"
	"omegasm/internal/san"
)

// TestOmegaOverSAN is the end-to-end integration of the paper's
// motivating deployment: Algorithm 1 running live over disk-replicated
// registers, electing across a disk crash.
func TestOmegaOverSAN(t *testing.T) {
	if testing.Short() {
		t.Skip("live SAN election takes seconds")
	}
	const n, disks = 3, 5
	var ds []*san.Disk
	for d := 0; d < disks; d++ {
		ds = append(ds, san.NewDisk(san.Latency{
			Base:   50 * time.Microsecond,
			Jitter: 100 * time.Microsecond,
		}, int64(d+1)))
	}
	mem, err := san.NewDiskMem(n, ds)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := rt.New(rt.Config{
		StepInterval: time.Millisecond,
		TimerUnit:    10 * time.Millisecond,
	}, core.Procs(core.BuildAlgo1(mem, n)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	leader, ok := cluster.WaitForAgreement(30 * time.Second)
	if !ok {
		t.Fatal("no leader elected over the SAN")
	}
	t.Logf("leader %d over %d disks", leader, disks)

	// Crash a minority disk mid-flight: the quorum must mask it and
	// leadership must hold (or re-stabilize).
	ds[2].Crash()
	leader2, ok := cluster.WaitForAgreement(30 * time.Second)
	if !ok {
		t.Fatal("agreement lost after a minority disk crash")
	}
	t.Logf("leader %d after disk crash", leader2)
}

// TestOmegaOverSANProcessCrash crashes the elected process (not a disk)
// and requires re-election over the disk substrate.
func TestOmegaOverSANProcessCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("live SAN election takes seconds")
	}
	const n, disks = 3, 3
	var ds []*san.Disk
	for d := 0; d < disks; d++ {
		ds = append(ds, san.NewDisk(san.Latency{Base: 20 * time.Microsecond}, int64(d+1)))
	}
	mem, err := san.NewDiskMem(n, ds)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := rt.New(rt.Config{
		StepInterval: time.Millisecond,
		TimerUnit:    10 * time.Millisecond,
	}, core.Procs(core.BuildAlgo1(mem, n)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	leader, ok := cluster.WaitForAgreement(30 * time.Second)
	if !ok {
		t.Fatal("no initial leader")
	}
	if err := cluster.Crash(leader); err != nil {
		t.Fatal(err)
	}
	next, ok := cluster.WaitForAgreement(60 * time.Second)
	if !ok {
		t.Fatal("no re-election over the SAN")
	}
	if next == leader {
		t.Fatalf("crashed process %d still leader", leader)
	}
}
