package main

import (
	"context"
	"fmt"
	"time"

	"omegasm"
)

// sanOpts carries the san subcommand's flag values.
type sanOpts struct {
	n, disks, crashDisks   int
	crashProc, kv          bool
	base, jitter, duration time.Duration
}

// parseSan parses the san subcommand. Crashing a majority of the disks
// is a usage error: the quorum discipline masks only a minority.
func parseSan(args []string) (func() int, error) {
	var o sanOpts
	fs, prof := newFlagSet("san")
	fs.IntVar(&o.n, "n", 3, "number of processes")
	fs.IntVar(&o.disks, "disks", 5, "number of disks (majority must survive)")
	fs.IntVar(&o.crashDisks, "crash-disk", 1, "disks to crash mid-run")
	fs.BoolVar(&o.crashProc, "crash-proc", true, "crash the elected leader mid-run")
	fs.BoolVar(&o.kv, "kv", true, "serve the replicated KV store over the oracle")
	fs.DurationVar(&o.base, "base", 200*time.Microsecond, "disk base latency")
	fs.DurationVar(&o.jitter, "jitter", 300*time.Microsecond, "disk latency jitter")
	fs.DurationVar(&o.duration, "duration", 3*time.Second, "how long to run after election")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := noArgs(fs); err != nil {
		return nil, err
	}
	if o.crashDisks >= (o.disks+1)/2 {
		return nil, usage(fmt.Errorf("crashing %d of %d disks would lose the majority", o.crashDisks, o.disks))
	}
	return prof.around(func() int { return runSan(o) }), nil
}

// runSan elects over the SAN, writes through the Disk-Paxos log, crashes
// disks and then the leader, and writes again under the new leader.
func runSan(o sanOpts) int {
	cluster, err := omegasm.New(
		omegasm.WithN(o.n),
		omegasm.WithSAN(omegasm.SANConfig{
			Disks:       o.disks,
			BaseLatency: o.base,
			Jitter:      o.jitter,
			SpikeP:      0.01,
			Spike:       10 * o.base,
		}),
	)
	if err != nil {
		return fail(err)
	}
	if err := cluster.Start(); err != nil {
		return fail(err)
	}
	defer cluster.Stop()

	leader, ok := cluster.WaitForAgreement(time.Minute)
	if !ok {
		return fail(fmt.Errorf("no election within a minute"))
	}
	fmt.Printf("elected leader %d over %d disks\n", leader, cluster.DiskCount())

	var kv *omegasm.KV
	if o.kv {
		kv, err = omegasm.NewKV(cluster, omegasm.KVSlots(256))
		if err != nil {
			return fail(err)
		}
		defer kv.Close()
		if err := putRange(kv, 0, 8); err != nil {
			return fail(fmt.Errorf("put: %w", err))
		}
		fmt.Printf("replicated %d writes through the disk-paxos log\n", kv.Applied())
	}

	time.Sleep(o.duration / 3)
	for d := 0; d < o.crashDisks; d++ {
		fmt.Printf("crashing disk %d...\n", d)
		if err := cluster.CrashDisk(d); err != nil {
			return fail(err)
		}
	}
	if o.crashProc {
		fmt.Printf("crashing leader process %d...\n", leader)
		if err := cluster.Crash(leader); err != nil {
			return fail(err)
		}
		next, ok := cluster.WaitForAgreement(time.Minute)
		if !ok {
			return fail(fmt.Errorf("no re-election within a minute"))
		}
		fmt.Printf("re-elected leader %d\n", next)
	}
	time.Sleep(o.duration * 2 / 3)

	if o.kv {
		// Writes keep committing under the new leader, over the surviving
		// disk majority.
		if err := putRange(kv, 8, 16); err != nil {
			return fail(fmt.Errorf("put after failover: %w", err))
		}
		fmt.Printf("store after failover: %d keys, %d log entries applied\n",
			kv.Len(), kv.Applied())
	}
	fmt.Println("done")
	return 0
}

// putRange writes key k = 100+k for every k in [from, to), each within a
// minute.
func putRange(kv *omegasm.KV, from, to uint16) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for k := from; k < to; k++ {
		if err := kv.Put(ctx, k, 100+k); err != nil {
			return err
		}
	}
	return nil
}
