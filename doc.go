// Package omegasm is the public API of the reproduction of "Electing an
// Eventual Leader in an Asynchronous Shared Memory System" (Fernández,
// Jiménez, Raynal; DSN 2007): eventual leader (Omega) election for
// crash-prone processes that communicate only through shared memory, plus
// the Paxos-style replication stack the paper motivates on top of it —
// up to a hash-partitioned, batch-committing key-value service.
//
// The Omega abstraction provides each process a Leader() query whose
// answers eventually converge, at every live process, on the identity of
// one process that has not crashed. Omega is the weakest failure detector
// for solving consensus in this model; it is the election core of
// Paxos-style replication.
//
// A Cluster is built from functional options and runs one process per
// participant on live goroutines:
//
//	c, err := omegasm.New(omegasm.WithN(5))
//	...
//	c.Start()
//	defer c.Stop()
//	leader, ok := c.WaitForAgreement(2 * time.Second)
//
// # Substrates
//
// The processes communicate through a pluggable shared-memory Substrate.
// The default is Atomic(): sync/atomic registers in process memory. The
// paper's motivating deployment — "computers that communicate through a
// network of attached disks ... a storage area network (SAN)" (its
// Section 1, pointing at Disk Paxos) — is the SAN substrate: every
// register replicated over simulated network-attached disks, written to
// all and acknowledged by a majority, so disk crashes below a majority
// are masked:
//
//	c, err := omegasm.New(
//		omegasm.WithN(3),
//		omegasm.WithSAN(omegasm.SANConfig{
//			Disks:       5,
//			BaseLatency: 200 * time.Microsecond,
//			Jitter:      300 * time.Microsecond,
//		}),
//	)
//	...
//	leader, ok := c.WaitForAgreement(time.Minute)
//	c.CrashDisk(0) // a minority of disk crashes is invisible to callers
//
// # Algorithms
//
// Four algorithm variants are available (WithAlgorithm):
//
//   - WriteEfficient (default; the paper's Figure 2): after the run
//     stabilizes, only the elected leader writes shared memory, and every
//     shared variable except the leader's progress counter is bounded.
//     Optimal in the number of eventual writers.
//   - Bounded (the paper's Figure 5): every shared variable is bounded
//     (the handshake registers are single bits); the price — proven
//     unavoidable by the paper's Theorem 5 — is that every live process
//     writes shared memory forever.
//   - NWnR (the paper's Section 3.5): WriteEfficient with each suspicion
//     column collapsed into one multi-writer register — n registers
//     instead of n².
//   - TimerFree (the paper's Section 3.5): WriteEfficient with the local
//     timer replaced by a counted loop, dropping the timer assumption.
//
// # Consensus and replication
//
// Because Omega is exactly the liveness ingredient Paxos needs, a Cluster
// also exposes the replication stack: Propose runs one-shot consensus
// among the cluster's processes, and NewKV serves a replicated key-value
// store over an Omega-driven Disk-Paxos log — both over whichever
// substrate the cluster was built on. The KV store can batch: KVBatch
// lets one consensus slot commit a whole group of queued writes via a
// published-batch indirection, amortizing the Disk-Paxos round (PutAll is
// the matching group-commit write path).
//
// # Unbounded write streams
//
// The log checkpoints by default (KVCheckpointEvery for a standalone KV,
// WithCheckpointEvery per shard of a ShardedKV): every few decided slots
// the leader seals the committed prefix into a snapshot of the store's
// state, published to immutable per-epoch register areas on the
// substrate via the same pointer-to-value indirection batches use; once
// a quorum of replicas durably acknowledges the seal, the sealed slots
// are recycled and reused, so the write stream is unbounded — KVSlots
// bounds only the in-flight window, and Put/PutAll never return
// ErrLogFull. A replica that falls behind the recycled window (restarted
// or long parked) installs the latest published snapshot and resumes at
// the seal point. The durability statement is unchanged by recycling: a
// committed write survives any minority of crashes, including across
// recycling, because it is always reconstructible from either a live
// slot or a durably published snapshot. KVCheckpointEvery(0) (or
// WithCheckpointEvery(0)) restores the fixed-capacity log and its
// ErrLogFull semantics.
//
// # Sharding
//
// ShardedKV composes the whole stack into one traffic-serving service: S
// consensus-backed shards over an internally owned Fleet, each key
// hash-routed to one shard, per-shard proposal batching on by default,
// and cross-shard MultiPut/MultiGet fanning out in parallel:
//
//	skv, err := omegasm.NewShardedKV(
//		omegasm.WithShards(4),
//		omegasm.WithN(3),
//	)
//	...
//	skv.Start()
//	defer skv.Close()
//	skv.WaitForAgreement(2 * time.Second)
//	err = skv.MultiPut(ctx, omegasm.Entry{Key: 1, Val: 10}, omegasm.Entry{Key: 2, Val: 20})
//	v, ok := skv.Get(1)
//
// # Deterministic simulation
//
// The same stacks run deterministically under the virtual-time engine:
// SimKV replays one cluster's full consensus/KV run and SimShardedKV a
// whole sharded store, with seeded adversarial scheduling, exact-time
// crash schedules and byte-identical results for equal configurations —
// failover scenarios the live runtime only produces statistically become
// unit tests, and the architecture's parallel capacity (commits against
// shard count) is asserted exactly.
//
// # Load and SLO harness
//
// Package omegasm/load executes declarative workload specs — client
// populations with Poisson/Gamma/Weibull arrival processes, Zipf key
// skew, read/write mixes and per-class SLO targets — open-loop against
// both the live stack (KV/ShardedKV on the wall clock) and the simulated
// one (SimKV/SimShardedKV under virtual time, via the Requests workload
// below), then calibrates sim-predicted latency percentiles against
// live-measured ones. `omegabench load` prints the comparison.
//
// Liveness rests on the paper's AWB assumption, which on a live host is
// mild: at least one live process's scheduler keeps granting it steps at
// a bounded pace (AWB1), and the other processes' timers eventually
// dominate a growing function of their timeout value (AWB2; Go timers
// never fire early, so they qualify by construction). Safety — that
// Leader always returns some process id — needs no assumption at all.
//
// See ARCHITECTURE.md in the repository for the layer map and a
// data-flow walkthrough of one write from enqueue to commit broadcast.
package omegasm
