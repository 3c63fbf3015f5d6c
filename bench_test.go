// Benchmarks: one per regenerated figure/table (running the corresponding
// harness experiment end to end and reporting its headline metric), plus
// micro-benchmarks of the hot paths (task bodies and register accesses).
//
// Run with:
//
//	go test -bench=. -benchmem
package omegasm

import (
	"context"
	"testing"
	"time"

	"omegasm/internal/consensus"
	"omegasm/internal/core"
	"omegasm/internal/harness"
	"omegasm/internal/shmem"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
)

// benchExperiment runs one harness experiment per iteration and fails the
// benchmark if any paper verdict fails: the benches double as full-scale
// reproduction checks.
func benchExperiment(b *testing.B, id string) {
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.Config{Quick: true, Seeds: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Report.AllOK() {
			b.Fatalf("verdicts failed:\n%s", out.Report)
		}
	}
}

// BenchmarkFig1TimerDominance regenerates Figure 1 (AWB timer dominance).
func BenchmarkFig1TimerDominance(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkFig2Election regenerates Figure 2 / Theorem 1 (eventual
// leadership across sizes, seeds and crash patterns).
func BenchmarkFig2Election(b *testing.B) { benchExperiment(b, "F2") }

// BenchmarkFig3WriteGaps regenerates Figure 3 (the leader's delta-timely
// critical-write sequence).
func BenchmarkFig3WriteGaps(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkFig4LowerBound regenerates Figure 4 / Theorem 5 (the bounded-
// memory adversary).
func BenchmarkFig4LowerBound(b *testing.B) { benchExperiment(b, "F4") }

// BenchmarkFig5Bounded regenerates Figure 5 / Theorems 6-7 (bounded
// variables; post-stabilization write set).
func BenchmarkFig5Bounded(b *testing.B) { benchExperiment(b, "F5") }

// BenchmarkThm3WriteEfficiency regenerates Theorems 2-3 (Algorithm 1's
// single eventual writer).
func BenchmarkThm3WriteEfficiency(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkLemma56 regenerates Lemmas 5-6 (windowed writer/reader census).
func BenchmarkLemma56(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkTableOptimality regenerates the cross-algorithm trade-off
// table (Section 3.4 / Conclusion).
func BenchmarkTableOptimality(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkVariants regenerates the Section 3.5 variants comparison.
func BenchmarkVariants(b *testing.B) { benchExperiment(b, "T4") }

// BenchmarkSweeps regenerates the sensitivity sweeps.
func BenchmarkSweeps(b *testing.B) { benchExperiment(b, "T5") }

// BenchmarkConsensus regenerates the Omega-driven replicated log.
func BenchmarkConsensus(b *testing.B) { benchExperiment(b, "T6") }

// BenchmarkComplexityCensus regenerates the read/write cost table.
func BenchmarkComplexityCensus(b *testing.B) { benchExperiment(b, "T7") }

// BenchmarkAblationStop regenerates the STOP-register ablation.
func BenchmarkAblationStop(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkAblationLeaderNoRead regenerates the Section 5 open-question
// probe.
func BenchmarkAblationLeaderNoRead(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkLeaderChasingAdversary regenerates the AWB1-necessity
// experiment.
func BenchmarkLeaderChasingAdversary(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkElectionLatencyByN reports the median election latency (in
// virtual ticks) per system size as a custom metric.
func BenchmarkElectionLatencyByN(b *testing.B) {
	for _, n := range []int{3, 5, 8, 16} {
		n := n
		b.Run(stats.I(n), func(b *testing.B) {
			var total int64
			runs := 0
			for i := 0; i < b.N; i++ {
				p := harness.Preset{
					Algo: harness.AlgoWriteEfficient, N: n,
					Seed: int64(i + 1), Horizon: 100_000,
					AWBProc: 0, Tau1: 1_000, Delta: 8,
				}
				out, err := harness.Execute(p)
				if err != nil {
					b.Fatal(err)
				}
				if out.Stable {
					total += out.StabTime
					runs++
				}
			}
			if runs > 0 {
				b.ReportMetric(float64(total)/float64(runs), "ticks/election")
			}
		})
	}
}

// --- micro-benchmarks of the hot paths ---

func benchSteps(b *testing.B, build func(mem shmem.Mem, n int) []core.Proc) {
	const n = 8
	mem := shmem.NewSimMem(n)
	procs := build(mem, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs[i%n].Step(int64(i))
	}
}

// BenchmarkAlgo1Step measures one T2 iteration of Algorithm 1 (n=8),
// including the leader computation's suspicion scan.
func BenchmarkAlgo1Step(b *testing.B) {
	benchSteps(b, func(mem shmem.Mem, n int) []core.Proc {
		return core.Procs(core.BuildAlgo1(mem, n))
	})
}

// BenchmarkAlgo2Step measures one T2 iteration of Algorithm 2 (n=8),
// including the handshake re-signalling.
func BenchmarkAlgo2Step(b *testing.B) {
	benchSteps(b, func(mem shmem.Mem, n int) []core.Proc {
		return core.Procs(core.BuildAlgo2(mem, n))
	})
}

// BenchmarkAlgo1OnTimer measures one T3 firing of Algorithm 1 (n=8).
func BenchmarkAlgo1OnTimer(b *testing.B) {
	const n = 8
	mem := shmem.NewSimMem(n)
	procs := core.BuildAlgo1(mem, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs[i%n].OnTimer(int64(i))
	}
}

// BenchmarkLeaderQuery measures the cached oracle query (must be trivial:
// it reads no shared memory).
func BenchmarkLeaderQuery(b *testing.B) {
	mem := shmem.NewSimMem(4)
	procs := core.BuildAlgo1(mem, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = procs[0].Leader()
	}
}

// BenchmarkSimRegister measures the instrumented simulation register.
func BenchmarkSimRegister(b *testing.B) {
	mem := shmem.NewSimMem(2)
	r := mem.Word(0, "PROGRESS", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Write(0, uint64(i))
		_ = r.Read(1)
	}
}

// BenchmarkAtomicRegister measures the live register without counting.
func BenchmarkAtomicRegister(b *testing.B) {
	mem := shmem.NewAtomicMem(2, false)
	r := mem.Word(0, "PROGRESS", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Write(0, uint64(i))
		_ = r.Read(1)
	}
}

// BenchmarkFleetLeaderQueries measures the Fleet's cached Leader fast
// path: 4 running clusters of 3 processes each, queried from parallel
// goroutines. The answer is one atomic load, so ns/op should stay flat no
// matter how many queriers pile on.
func BenchmarkFleetLeaderQueries(b *testing.B) {
	f, err := NewFleet(
		WithClusters(4),
		WithN(3),
		WithStepInterval(100*time.Microsecond),
		WithTimerUnit(time.Millisecond),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Start(); err != nil {
		b.Fatal(err)
	}
	defer f.Stop()
	if _, ok := f.WaitForAgreement(20 * time.Second); !ok {
		b.Fatal("fleet did not agree")
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			// Transient anarchy (ok=false) is legitimate — Omega is only
			// eventually stable — so only validate the answer's range.
			if l, ok := f.Leader(i & 3); ok && (l < 0 || l >= 3) {
				b.Errorf("leader out of range: %d", l)
				return
			}
			i++
		}
	})
}

// BenchmarkKVThroughput measures the public replicated key-value store:
// each iteration is one synchronous Put — submitted to the Omega-elected
// leader, committed through the Disk-Paxos log, applied at the reading
// replica.
func BenchmarkKVThroughput(b *testing.B) {
	c, err := New(
		WithN(3),
		WithStepInterval(100*time.Microsecond),
		WithTimerUnit(time.Millisecond),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	if _, ok := c.WaitForAgreement(20 * time.Second); !ok {
		b.Fatal("no agreement")
	}
	kv, err := NewKV(c,
		KVSlots(2*b.N+64), // commits may duplicate across failovers
		kvStepInterval(50*time.Microsecond))
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put(ctx, uint16(i%1024), uint16(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVSustained measures the sustained committed-write rate of a
// default-options (checkpointing) store over a deliberately tiny 64-slot
// window: every iteration is one synchronous Put, and at any b.N past a
// few hundred the stream is many times the slot capacity, so the rate
// includes the full checkpoint seal/publish/quorum-ack/recycle cycle. A
// fixed-capacity log would fail with ErrLogFull almost immediately.
func BenchmarkKVSustained(b *testing.B) {
	c, err := New(
		WithN(3),
		WithStepInterval(100*time.Microsecond),
		WithTimerUnit(time.Millisecond),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	if _, ok := c.WaitForAgreement(20 * time.Second); !ok {
		b.Fatal("no agreement")
	}
	kv, err := NewKV(c,
		KVSlots(64), // window stays tiny no matter how long the stream runs
		kvStepInterval(50*time.Microsecond))
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put(ctx, uint16(i%1024), uint16(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(kv.Checkpoints()), "checkpoints")
}

// BenchmarkShardedKVThroughput measures the live sharded store end to
// end: b.N committed writes pushed through MultiPut groups (so per-shard
// proposal batching engages), at 1 and 4 shards. One op is one committed
// write. These are wall-clock numbers and therefore bounded by the host's
// core count — the architecture's parallel capacity is asserted exactly,
// in virtual time, by TestSimShardedKVSaturationScalesWithShards.
func BenchmarkShardedKVThroughput(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run("shards="+stats.I(shards), func(b *testing.B) {
			s, err := NewShardedKV(
				WithShards(shards),
				WithN(3),
				WithStepInterval(100*time.Microsecond),
				WithTimerUnit(time.Millisecond),
				// Worst-case skew plus failover duplicates must still fit
				// one shard's log: with batching each slot holds many.
				withShardSlots(b.N/8+2048),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			if !s.WaitForAgreement(20 * time.Second) {
				b.Fatal("shards did not elect")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			defer cancel()
			const group = 128
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := min(group, b.N-done)
				entries := make([]Entry, n)
				for j := range entries {
					k := done + j
					entries[j] = Entry{Key: uint16(k % 1024), Val: uint16(k)}
				}
				if err := s.MultiPut(ctx, entries...); err != nil {
					b.Fatal(err)
				}
				done += n
			}
		})
	}
}

// BenchmarkConsensusDecide measures a full single-proposer consensus
// round (3 processes, stable leader), the paper's motivating workload.
func BenchmarkConsensusDecide(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mem := shmem.NewSimMem(3)
		inst := consensus.NewInstance(mem, 3, 0)
		p, err := consensus.NewProposer(inst, 0, 42, func() int { return 0 })
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 10; s++ {
			p.Step(0)
			if _, ok := p.Decided(); ok {
				break
			}
		}
		if _, ok := p.Decided(); !ok {
			b.Fatal("no decision")
		}
	}
}

// BenchmarkStabilizationAnalysis measures the trace analysis itself over
// a long synthetic run.
func BenchmarkStabilizationAnalysis(b *testing.B) {
	p := harness.Preset{
		Algo: harness.AlgoWriteEfficient, N: 5, Seed: 1,
		Horizon: 100_000, AWBProc: 0, Tau1: 1_000, Delta: 8,
	}
	out, err := harness.Execute(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = trace.Stabilization(out.Samples, out.Crashed)
	}
}
