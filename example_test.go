package omegasm_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"omegasm"
)

// Example_shardedKV runs the whole stack as a service: a hash-partitioned
// key-value store of two consensus-backed shards, written through the
// batching MultiPut fan-out and read back through MultiGet.
func Example_shardedKV() {
	skv, err := omegasm.NewShardedKV(
		omegasm.WithShards(2),
		omegasm.WithN(3),
		omegasm.WithBatchSize(8),
	)
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	if err := skv.Start(); err != nil {
		fmt.Println("start error:", err)
		return
	}
	defer skv.Close()
	if !skv.WaitForAgreement(10 * time.Second) {
		fmt.Println("no agreement")
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	entries := make([]omegasm.Entry, 16)
	for i := range entries {
		entries[i] = omegasm.Entry{Key: uint16(i), Val: uint16(100 + i)}
	}
	if err := skv.MultiPut(ctx, entries...); err != nil {
		fmt.Println("multiput error:", err)
		return
	}
	vals, ok := skv.MultiGet(3, 11)
	fmt.Println("committed keys:", skv.Len())
	fmt.Println("key 3:", vals[0], ok[0])
	fmt.Println("key 11:", vals[1], ok[1])
	// Output:
	// committed keys: 16
	// key 3: 103 true
	// key 11: 111 true
}

// ExampleCluster shows the basic lifecycle: start a cluster, wait for the
// oracle outputs to converge, and shut down.
func ExampleCluster() {
	c, err := omegasm.New(omegasm.WithN(3))
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	if err := c.Start(); err != nil {
		fmt.Println("start error:", err)
		return
	}
	defer c.Stop()

	if leader, ok := c.WaitForAgreement(10 * time.Second); ok {
		fmt.Println("a leader was elected:", leader >= 0 && leader < c.N())
	}
	// Output:
	// a leader was elected: true
}

// ExampleCluster_crash demonstrates crash-stop failover: the survivors'
// oracle converges on a new correct leader.
func ExampleCluster_crash() {
	c, err := omegasm.New(omegasm.WithN(4), omegasm.WithAlgorithm(omegasm.Bounded))
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	if err := c.Start(); err != nil {
		fmt.Println("start error:", err)
		return
	}
	defer c.Stop()

	leader, ok := c.WaitForAgreement(10 * time.Second)
	if !ok {
		fmt.Println("no agreement")
		return
	}
	if err := c.Crash(leader); err != nil {
		fmt.Println("crash error:", err)
		return
	}
	next, ok := c.WaitForAgreement(30 * time.Second)
	fmt.Println("re-elected:", ok && next != leader)
	// Output:
	// re-elected: true
}

// ExampleWithAlgorithm elects a leader with each of the paper's four
// algorithms: Figure 2 (WriteEfficient, the default), Figure 5 (Bounded)
// and Section 3.5's multi-writer (NWnR) and clock-free (TimerFree)
// variants.
func ExampleWithAlgorithm() {
	for _, a := range []omegasm.Algorithm{omegasm.WriteEfficient, omegasm.Bounded, omegasm.NWnR, omegasm.TimerFree} {
		c, err := omegasm.New(omegasm.WithN(3), omegasm.WithAlgorithm(a))
		if err != nil {
			fmt.Println("config error:", err)
			return
		}
		if err := c.Start(); err != nil {
			fmt.Println("start error:", err)
			return
		}
		_, ok := c.WaitForAgreement(10 * time.Second)
		c.Stop()
		fmt.Printf("%v elects a leader: %v\n", a, ok)
	}
	// Output:
	// WriteEfficient elects a leader: true
	// Bounded elects a leader: true
	// NWnR elects a leader: true
	// TimerFree elects a leader: true
}

// ExampleKV_Read reads one committed write at each point of the read
// ladder: the freshest replica's state (what Get serves), a lease-local
// linearizable read, and a read fenced through a consensus slot.
func ExampleKV_Read() {
	c, err := omegasm.New(omegasm.WithN(3))
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	if err := c.Start(); err != nil {
		fmt.Println("start error:", err)
		return
	}
	defer c.Stop()
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		fmt.Println("no agreement")
		return
	}
	kv, err := omegasm.NewKV(c)
	if err != nil {
		fmt.Println("kv error:", err)
		return
	}
	defer kv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := kv.Put(ctx, 7, 700); err != nil {
		fmt.Println("put error:", err)
		return
	}
	for _, m := range []struct {
		name string
		mode omegasm.ReadMode
	}{{"freshest", omegasm.ReadFreshest}, {"lease", omegasm.ReadLease}, {"quorum", omegasm.ReadQuorum}} {
		v, ok, err := kv.Read(ctx, 7, m.mode)
		fmt.Println(m.name+":", v, ok, err)
	}
	// Output:
	// freshest: 700 true <nil>
	// lease: 700 true <nil>
	// quorum: 700 true <nil>
}

// ExampleSimKV scripts a deterministic failover of the full stack under
// the virtual-time engine: find out whom a seed elects, crash exactly
// that leader in the middle of a replicated write workload, watch the
// survivors re-elect and finish it, and replay the scenario to the same
// committed history. The seeded adversary, not the wall clock, chooses
// the interleaving, so the crash the live runtime can only produce
// statistically happens on demand, at an exact virtual time.
func ExampleSimKV() {
	const seed, horizon, crashAt = 2024, 600_000, 100_000
	leaderOf := func(res *omegasm.SimKVResult) int {
		for p, l := range res.Leaders {
			if !res.Crashed[p] {
				return l
			}
		}
		return -1
	}
	probe, err := omegasm.SimKV(omegasm.SimKVConfig{N: 4, Seed: seed, Horizon: horizon})
	if err != nil {
		fmt.Println(err)
		return
	}
	leader := leaderOf(probe)
	fmt.Printf("probe run: seed %d elects process %d\n", seed, leader)

	// Ten writes spanning the crash of that leader.
	cfg := omegasm.SimKVConfig{N: 4, Seed: seed, Horizon: horizon, Crashes: map[int]int64{leader: crashAt}}
	for i := 0; i < 10; i++ {
		cfg.Writes = append(cfg.Writes, omegasm.SimWrite{At: int64(2_000 + i*30_000), Key: uint16(i), Val: uint16(1000 + i)})
	}
	res, err := omegasm.SimKV(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("leader %d crashed at t=%d; %d/%d writes delivered by t=%d\n",
		leader, crashAt, res.Delivered, len(cfg.Writes), res.End)
	fmt.Printf("survivors re-elected process %d\n", leaderOf(res))
	for i, c := range res.Committed {
		fmt.Printf("slot %d: set %d = %d\n", i, c.Key, c.Val)
	}
	again, err := omegasm.SimKV(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("replay byte-identical:", reflect.DeepEqual(res.Committed, again.Committed))
	// Output:
	// probe run: seed 2024 elects process 0
	// leader 0 crashed at t=100000; 10/10 writes delivered by t=600000
	// survivors re-elected process 1
	// slot 0: set 0 = 1000
	// slot 1: set 1 = 1001
	// slot 2: set 2 = 1002
	// slot 3: set 3 = 1003
	// slot 4: set 4 = 1004
	// slot 5: set 5 = 1005
	// slot 6: set 6 = 1006
	// slot 7: set 7 = 1007
	// slot 8: set 8 = 1008
	// slot 9: set 9 = 1009
	// replay byte-identical: true
}

// Example_leaderLease uses the oracle for primary election over a pool of
// workers: only the worker its own oracle names leader drains the job
// queue, and when that leader crashes mid-queue the survivors' oracle
// converges on a new one, which finishes the queue. Omega is only
// eventually accurate — two workers may briefly both believe they lead —
// so the queue hands out each job once and the election decides only who
// does the work; mutual exclusion would need consensus on top (KV).
func Example_leaderLease() {
	const n, jobs = 4, 200
	c, err := omegasm.New(omegasm.WithN(n), omegasm.WithAlgorithm(omegasm.Bounded))
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	if err := c.Start(); err != nil {
		fmt.Println("start error:", err)
		return
	}
	defer c.Stop()

	queue := make(chan int, jobs)
	for j := 0; j < jobs; j++ {
		queue <- j
	}
	var (
		runs     [jobs]atomic.Int32 // times each job ran
		byWorker [n]atomic.Int32
		left     atomic.Int32
		finished = make(chan struct{}) // closed with the last job
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	defer func() {
		close(stop)
		wg.Wait()
	}()
	left.Store(jobs)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if l, err := c.Leader(w); err != nil || l != w || c.Crashed(w) {
					continue
				}
				select {
				case j := <-queue:
					runs[j].Add(1)
					byWorker[w].Add(1)
					if left.Add(-1) == 0 {
						close(finished)
					}
				default:
				}
			}
		}()
	}

	leader, ok := c.WaitForAgreement(10 * time.Second)
	if !ok {
		fmt.Println("no agreement")
		return
	}
	for left.Load() > 3*jobs/4 {
		time.Sleep(time.Millisecond)
	}
	if err := c.Crash(leader); err != nil {
		fmt.Println("crash error:", err)
		return
	}
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		fmt.Println("the survivors never finished the queue")
		return
	}
	once := 0
	for j := range runs {
		if runs[j].Load() == 1 {
			once++
		}
	}
	fmt.Println("jobs drained exactly once:", once, "of", jobs)
	fmt.Println("survivors finished the queue:", byWorker[leader].Load() < jobs)
	// Output:
	// jobs drained exactly once: 200 of 200
	// survivors finished the queue: true
}
