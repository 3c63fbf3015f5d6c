// Sanpaxos: the paper's motivating deployment, end to end. A storage area
// network of commodity disks implements the shared memory (paper Section
// 1: "communicate through a network of attached disks"); the Omega
// algorithm elects a leader over disk-replicated registers; the leader
// drives a Disk-Paxos replicated log (the paper's references [9], [16]).
// One disk crashes mid-run and is masked by the majority quorum.
//
// This example uses the repository's internal substrates directly, since
// it demonstrates the full stack rather than the public facade.
//
//	go run ./examples/sanpaxos
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"omegasm/internal/consensus"
	"omegasm/internal/core"
	"omegasm/internal/rt"
	"omegasm/internal/san"
)

func main() {
	const (
		n     = 3
		disks = 5
		slots = 16
	)
	// Five disks with realistic latency spread; quorum is 3.
	var ds []*san.Disk
	for d := 0; d < disks; d++ {
		ds = append(ds, san.NewDisk(san.Latency{
			Base:   200 * time.Microsecond,
			Jitter: 300 * time.Microsecond,
			SpikeP: 0.01,
			Spike:  3 * time.Millisecond,
		}, int64(d+1)))
	}
	mem, err := san.NewDiskMem(n, ds)
	if err != nil {
		log.Fatal(err)
	}

	// Omega over the SAN: the same Figure 2 state machines, now reading
	// and writing disk-replicated registers.
	cluster, err := rt.New(rt.Config{
		StepInterval: 2 * time.Millisecond, // disk ops are slow; pace accordingly
		TimerUnit:    25 * time.Millisecond,
	}, core.Procs(core.BuildAlgo1(mem, n)))
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	leader, ok := cluster.WaitForAgreement(30 * time.Second)
	if !ok {
		log.Fatal("no leader over the SAN within 30s")
	}
	fmt.Printf("leader over the SAN: process %d (quorum %d of %d disks)\n",
		leader, mem.Quorum(), disks)

	// A replicated log over the same disks, driven by the oracle.
	dlog := consensus.NewLog(mem, n, slots)
	replicas := make([]*consensus.Replica, n)
	for i := 0; i < n; i++ {
		i := i
		r, err := consensus.NewReplica(dlog, i, func() int {
			l, err := cluster.Leader(i)
			if err != nil {
				return -1
			}
			return l
		})
		if err != nil {
			log.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			r.Submit(uint32(i*100 + k + 1))
		}
		replicas[i] = r
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, r := range replicas {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					r.Step(0)
				}
			}
		}()
	}

	// Crash a disk mid-replication: the quorum masks it.
	time.Sleep(300 * time.Millisecond)
	fmt.Println("crashing disk 0 mid-replication...")
	ds[0].Crash()

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if len(replicas[leader].Committed()) >= 4 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	fmt.Println("committed prefixes (must agree):")
	for i, r := range replicas {
		fmt.Printf("  replica %d: %v\n", i, r.Committed())
	}
}
