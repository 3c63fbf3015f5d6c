package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"omegasm"
	"omegasm/internal/consensus"
	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/san"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
	"omegasm/load"
)

// The ladder times each layer through its own public functions, one
// short probe per rung. Every rung is processor-bound and so moves with
// the host's speed: the numbers are for attribution within one traced
// run, never for a gate.

// perOp runs body(batch) repeatedly for budget and returns the lower
// quartile of nanoseconds per iteration over the batches: interference
// only ever adds time, so the low side is the better estimate of the
// code's own cost.
func perOp(budget time.Duration, batch int, body func(n int)) sample {
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 4; {
		t0 := time.Now()
		body(batch)
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return sample{quantile(per, 0.25), int64(len(per) * batch)}
}

const rungBudget = 60 * time.Millisecond

var ladderSink uint64

func ladder(e env) (map[string]sample, error) {
	m := map[string]sample{}
	span := e.tr.begin("ladder", 0, 0)
	defer e.tr.end(span)
	rungs := []struct {
		name string
		run  func(e env, m map[string]sample) error
	}{
		{"ladder.shmem", ladderShmem},
		{"ladder.core", ladderCore},
		{"ladder.consensus", ladderConsensus},
		{"ladder.engine", ladderEngine},
		{"ladder.cluster", ladderCluster},
		{"ladder.kv", ladderKV},
		{"ladder.census", ladderCensus},
		{"ladder.san", ladderSAN},
		{"ladder.sharded", ladderSharded},
		{"ladder.sim", ladderSim},
	}
	for _, r := range rungs {
		sp := e.tr.begin(r.name, span, 0)
		err := r.run(e, m)
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
	}
	return m, nil
}

func ladderShmem(_ env, m map[string]sample) error {
	plain := shmem.NewAtomicMem(3, false).Word(0, "BENCH", 0)
	m["shmem.atomic_load_ns"] = perOp(rungBudget, 100_000, func(n int) {
		var s uint64
		for i := 0; i < n; i++ {
			s += plain.Read(1)
		}
		ladderSink += s
	})
	m["shmem.atomic_store_ns"] = perOp(rungBudget, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			plain.Write(0, uint64(i))
		}
	})
	counted := shmem.NewAtomicMem(3, true).Word(0, "BENCH", 0)
	m["shmem.census_access_ns"] = perOp(rungBudget, 50_000, func(n int) {
		var s uint64
		for i := 0; i < n; i += 2 {
			counted.Write(0, uint64(i))
			s += counted.Read(1)
		}
		ladderSink += s
	})
	return nil
}

func ladderCore(_ env, m map[string]sample) error {
	procs := core.BuildAlgo1(shmem.NewAtomicMem(3, false), 3)
	var now int64
	m["core.step_ns"] = perOp(rungBudget, 30_000, func(n int) {
		for i := 0; i < n; i++ {
			now++
			procs[i%3].Step(now)
		}
	})
	return nil
}

func ladderConsensus(_ env, m map[string]sample) error {
	// One uncontended instance, proposed and decided by the leader alone;
	// allocating the instances is outside the timed part.
	var per []float64
	for start := time.Now(); time.Since(start) < rungBudget || len(per) < 4; {
		const batch = 256
		insts := consensus.NewInstances(shmem.NewAtomicMem(3, false), 3, 0, batch)
		t0 := time.Now()
		for i := range insts {
			p, err := consensus.NewProposer(&insts[i], 0, 42, func() int { return 0 })
			if err != nil {
				return err
			}
			for s := 0; s < 16; s++ {
				p.Step(0)
				if _, ok := p.Decided(); ok {
					break
				}
			}
			if _, ok := p.Decided(); !ok {
				return fmt.Errorf("instance %d undecided after 16 steps", i)
			}
		}
		per = append(per, durUS(time.Since(t0))/batch)
	}
	m["consensus.decide_us"] = sample{quantile(per, 0.25), int64(len(per)) * 256}

	// The replicated log with no engine under it: the protocol's ceiling.
	stores, err := bareStores(1024, 32)
	if err != nil {
		return err
	}
	pairs := make([][2]uint16, 32)
	var now vclock.Time
	var seq, target int
	var logErr error
	logPer := perOp(4*rungBudget, 16, func(n int) {
		for b := 0; b < n; b++ {
			for i := range pairs {
				seq++
				pairs[i] = [2]uint16{uint16(seq % 4096), uint16(seq)}
			}
			if err := stores[0].SetAll(pairs...); err != nil {
				logErr = err
				return
			}
			target += len(pairs)
			for spins := 0; stores[0].Applied() < target || stores[1].Applied() < target || stores[2].Applied() < target; spins++ {
				if spins > 1_000_000 {
					logErr = fmt.Errorf("bare log stalled at %d of %d", stores[0].Applied(), target)
					return
				}
				for _, st := range stores {
					now++
					st.StepBurst(now, 8)
				}
			}
		}
	})
	if logErr != nil {
		return logErr
	}
	m["consensus.log_cmds_per_s"] = sample{32 * 1e9 / logPer.v, logPer.n * 32}

	// A replica that slept through more than one window catches up by
	// installing the published snapshot.
	var catchup []float64
	for r := 0; r < 3; r++ {
		d, err := catchUp()
		if err != nil {
			return err
		}
		catchup = append(catchup, durUS(d))
	}
	m["consensus.catchup_us"] = sample{median(catchup), int64(len(catchup))}
	return nil
}

func scale(s sample, f float64) sample { return sample{s.v * f, s.n} }

// bareStores builds three replicas of a checkpointing, batching log on
// uncounted atomic registers, process 0 the fixed leader.
func bareStores(slots, batch int) ([]*consensus.KV, error) {
	mem := shmem.NewAtomicMem(3, false)
	log, err := consensus.NewCheckpointLog(mem, 3, slots, batch, consensus.DefaultCheckpointEvery(slots, 3))
	if err != nil {
		return nil, err
	}
	stores := make([]*consensus.KV, 3)
	for i := range stores {
		r, err := consensus.NewReplica(log, i, func() int { return 0 })
		if err != nil {
			return nil, err
		}
		if stores[i], err = consensus.NewKV(r); err != nil {
			return nil, err
		}
	}
	return stores, nil
}

func catchUp() (time.Duration, error) {
	const slots, writes, keys = 256, 8192, 4096
	stores, err := bareStores(slots, 1)
	if err != nil {
		return 0, err
	}
	var now vclock.Time
	for k := 0; k < writes; {
		// Feed the window in pieces: an unbatched log queues at most what
		// the recycling window can hold ahead of the checkpoints.
		for ; k < writes && stores[0].PendingLen() < slots/4; k++ {
			if err := stores[0].Set(uint16(k%keys), uint16(k)); err != nil {
				return 0, err
			}
		}
		for i := 0; i < 2; i++ {
			now++
			stores[i].StepBurst(now, 8)
		}
	}
	for spins := 0; stores[0].Applied() < writes || stores[1].Applied() < writes; spins++ {
		if spins > 5_000_000 {
			return 0, fmt.Errorf("catch-up: leader stalled at %d of %d", stores[0].Applied(), writes)
		}
		for i := 0; i < 2; i++ {
			now++
			stores[i].StepBurst(now, 8)
		}
	}
	t0 := time.Now()
	for spins := 0; stores[2].Applied() < writes; spins++ {
		if spins > 5_000_000 {
			return 0, fmt.Errorf("catch-up: laggard stalled at %d", stores[2].Applied())
		}
		now++
		stores[2].StepBurst(now, 8)
	}
	d := time.Since(t0)
	if stores[2].SnapshotInstalls() == 0 {
		return 0, fmt.Errorf("catch-up: laggard replayed instead of installing a snapshot")
	}
	return d, nil
}

func ladderEngine(_ env, m map[string]sample) error {
	// Notify of a parked machine to its Step being entered.
	wake := func() (sample, error) {
		eng := engine.NewLive(engine.LiveConfig{})
		stepped := make(chan time.Time, 1) // one wake in flight at a time
		id := eng.Add(engine.MachineFunc(func(vclock.Time) engine.Hint {
			select {
			case stepped <- time.Now():
			default:
			}
			return engine.Park()
		}))
		if err := eng.Start(); err != nil {
			return sample{}, err
		}
		defer eng.Stop()
		<-stepped // the first step every added machine gets
		var us []float64
		for start := time.Now(); time.Since(start) < 2*rungBudget; {
			t0 := time.Now()
			eng.Notify(id)
			us = append(us, durUS((<-stepped).Sub(t0)))
		}
		return sample{median(us), int64(len(us))}, nil
	}
	var err error
	prev := runtime.GOMAXPROCS(1)
	m["engine.live_notify_step_us"], err = wake()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	if m["engine.live_notify_step_mp_us"], err = wake(); err != nil {
		return err
	}

	const machines, horizon = 8, 400_000
	t0 := time.Now()
	sim, err := engine.NewSim(engine.SimConfig{Seed: 1, Horizon: horizon})
	if err != nil {
		return err
	}
	ids := make([]int, machines)
	for i := range ids {
		ids[i] = sim.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint { return engine.At(now + 3) }))
	}
	sim.Run()
	var steps uint64
	for _, id := range ids {
		steps += sim.Steps(id)
	}
	m["engine.sim_events_per_s"] = sample{float64(steps) / time.Since(t0).Seconds(), int64(steps)}
	return nil
}

func ladderCluster(_ env, m map[string]sample) error {
	var agree []float64
	for i := 0; i < 9; i++ {
		st, err := openStore(nil)
		if err != nil {
			return err
		}
		agree = append(agree, durMS(st.agree))
		if i == 0 {
			m["rt.leader_query_ns"] = perOp(rungBudget, 100_000, func(n int) {
				for i := 0; i < n; i++ {
					l, _ := st.c.AgreedLeader()
					ladderSink += uint64(l)
				}
			})
		}
		st.close()
	}
	m["rt.agreement_ms"] = sample{median(agree), int64(len(agree))}

	f, err := omegasm.NewFleet(omegasm.WithN(3), omegasm.WithClusters(2))
	if err != nil {
		return err
	}
	if err := f.Start(); err != nil {
		return err
	}
	defer f.Stop()
	if _, ok := f.WaitForAgreement(10 * time.Second); !ok {
		return fmt.Errorf("fleet: no agreement within 10s")
	}
	m["fleet.leader_query_ns"] = perOp(rungBudget, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			l, _ := f.Leader(i & 1)
			ladderSink += uint64(l)
		}
	})
	return nil
}

func ladderKV(e env, m map[string]sample) error {
	ctx := context.Background()
	st, err := openStore([]omegasm.KVOption{omegasm.KVBatch(32)})
	if err != nil {
		return err
	}
	defer st.close()
	var opErr error
	put := func(n int) {
		for i := 0; i < n && opErr == nil; i++ {
			opErr = st.kv.Put(ctx, uint16(i%4096), uint16(i))
		}
	}

	// Allocation cost of one serial Put, on one processor as in
	// kv_closed_mix.
	prev := runtime.GOMAXPROCS(1)
	put(2000)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	const counted = 20_000
	put(counted)
	runtime.ReadMemStats(&b)
	m["kv.put_allocs"] = sample{float64(b.Mallocs-a.Mallocs) / counted, counted}
	m["kv.put_bytes"] = sample{float64(b.TotalAlloc-a.TotalAlloc) / counted, counted}
	m["lease.read_ns"] = perOp(rungBudget, 50_000, func(n int) {
		for i := 0; i < n && opErr == nil; i++ {
			_, _, opErr = st.kv.Read(ctx, uint16(i%4096), omegasm.ReadLease)
		}
	})
	runtime.GOMAXPROCS(prev)

	// The same serial Put with every processor: the cross-thread hand-off.
	var mp []float64
	for start := time.Now(); time.Since(start) < 5*rungBudget && opErr == nil; {
		t0 := time.Now()
		opErr = st.kv.Put(ctx, uint16(len(mp)%4096), uint16(len(mp)))
		mp = append(mp, durUS(time.Since(t0)))
	}
	m["kv.put_mp_p50_us"] = sample{median(mp), int64(len(mp))}
	m["lease.quorum_read_us"] = scale(perOp(2*rungBudget, 64, func(n int) {
		for i := 0; i < n && opErr == nil; i++ {
			_, _, opErr = st.kv.Read(ctx, uint16(i%4096), omegasm.ReadQuorum)
		}
	}), 1e-3)
	if opErr != nil {
		return opErr
	}

	// ROADMAP's open-loop mix, 2000 requests a second, timed from due.
	spec := load.Spec{
		Name: "open-2k", Clients: 64, Duration: 1500 * time.Millisecond, Seed: e.seed + 1, Rate: 2000,
		Process: load.Poisson, Keys: 1024, ZipfS: 1.2, ReadFraction: 0.5,
		Classes: []load.Class{{Name: "all", Weight: 1, SLO: 20 * time.Millisecond}},
	}
	_, results, err := load.RunLiveResults(&spec, st.kv, load.LiveOptions{})
	if err != nil {
		return err
	}
	var us []float64
	for _, r := range results {
		if !r.Read && r.Latency >= 0 {
			us = append(us, durUS(r.Latency))
		}
	}
	m["kv.open_2k_p50_us"] = sample{quantile(us, 0.5), int64(len(us))}
	m["kv.open_2k_p99_us"] = sample{quantile(us, 0.99), int64(len(us))}
	return nil
}

// accesses sums every register read and write the census has counted.
func accesses(s *omegasm.Stats) (reads, writes uint64) {
	for p := range s.Readers {
		reads += s.Readers[p]
		writes += s.Writers[p]
	}
	return reads, writes
}

func ladderCensus(_ env, m map[string]sample) error {
	ctx := context.Background()
	// Register accesses per committed serial write, atomic substrate.
	st, err := openStore([]omegasm.KVOption{omegasm.KVBatch(32)}, omegasm.WithInstrumentation())
	if err != nil {
		return err
	}
	const puts = 2000
	r0, w0 := accesses(st.c.Stats())
	for i := 0; i < puts; i++ {
		if err := st.kv.Put(ctx, uint16(i%4096), uint16(i)); err != nil {
			st.close()
			return err
		}
	}
	r1, w1 := accesses(st.c.Stats())
	st.close()
	m["shmem.reg_reads_per_write"] = sample{float64(r1-r0) / puts, puts}
	m["shmem.reg_writes_per_write"] = sample{float64(w1-w0) / puts, puts}

	// The paper's write-efficiency: once the election has settled, which
	// share of register writes comes from processes other than the leader.
	c, err := omegasm.New(omegasm.WithN(3), omegasm.WithInstrumentation())
	if err != nil {
		return err
	}
	if err := c.Start(); err != nil {
		return err
	}
	defer c.Stop()
	leader, ok := c.WaitForAgreement(10 * time.Second)
	if !ok {
		return fmt.Errorf("census: no agreed leader within 10s")
	}
	time.Sleep(200 * time.Millisecond)
	before := c.Stats()
	time.Sleep(400 * time.Millisecond)
	after := c.Stats()
	if l, ok := c.AgreedLeader(); !ok || l != leader {
		// The election moved inside the window; the share is then not the
		// steady-state one, so report what was seen without pretending.
		leader = l
	}
	var all, others uint64
	for p := range after.Writers {
		d := after.Writers[p] - before.Writers[p]
		all += d
		if p != leader {
			others += d
		}
	}
	m["shmem.nonleader_write_share"] = sample{float64(others) / float64(max(all, 1)), int64(all)}
	return nil
}

func ladderSAN(e env, m map[string]sample) error {
	ctx := context.Background()
	// One register on the disk farm the SAN workload uses.
	cfg := sanConfig(e.seed + 99)
	disks := make([]*san.Disk, cfg.Disks)
	for d := range disks {
		disks[d] = san.NewDisk(san.Latency{Base: cfg.BaseLatency, Jitter: cfg.Jitter}, cfg.Seed+int64(d))
	}
	mem, err := san.NewUncountedDiskMem(3, disks)
	if err != nil {
		return err
	}
	reg := mem.Word(0, "BENCH", 0)
	var wr, rd []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		reg.Write(0, uint64(i))
		t1 := time.Now()
		ladderSink += reg.Read(1)
		wr = append(wr, durUS(t1.Sub(t0)))
		rd = append(rd, durUS(time.Since(t1)))
	}
	for _, d := range disks {
		d.Close()
	}
	m["san.quorum_write_us"] = sample{median(wr), int64(len(wr))}
	m["san.quorum_read_us"] = sample{median(rd), int64(len(rd))}

	// Census on: what the store does to the disks with and without clients.
	st, err := openSAN(e.seed+98, omegasm.WithInstrumentation())
	if err != nil {
		return err
	}
	defer st.close()
	for i := 0; i < 3; i++ {
		if err := st.kv.Put(ctx, uint16(i), uint16(i)); err != nil {
			return err
		}
	}
	r0, w0 := accesses(st.c.Stats())
	t0 := time.Now()
	time.Sleep(500 * time.Millisecond)
	r1, w1 := accesses(st.c.Stats())
	m["shmem.idle_accesses_per_s"] = sample{float64(r1-r0+w1-w0) / time.Since(t0).Seconds(), int64(r1 - r0 + w1 - w0)}
	const puts = 6
	var inside uint64
	for i := 0; i < puts; i++ {
		ra, wa := accesses(st.c.Stats())
		if err := st.kv.Put(ctx, uint16(100+i), uint16(i)); err != nil {
			return err
		}
		rb, wb := accesses(st.c.Stats())
		inside += rb - ra + wb - wa
	}
	m["san.accesses_per_write"] = sample{float64(inside) / puts, puts}

	// Group commit on the SAN: sixteen entries in one PutAll.
	entries := make([]omegasm.Entry, 16)
	var batch []float64
	for b := 0; b < 2; b++ {
		for i := range entries {
			entries[i] = omegasm.Entry{Key: uint16(200 + i), Val: uint16(b*16 + i)}
		}
		t0 := time.Now()
		if err := st.kv.PutAll(ctx, entries...); err != nil {
			return err
		}
		batch = append(batch, durUS(time.Since(t0)))
	}
	m["kv.san_putall16_us"] = sample{median(batch), int64(len(batch))}
	return nil
}

func ladderSharded(_ env, m map[string]sample) error {
	s, err := omegasm.NewShardedKV(omegasm.WithN(3), omegasm.WithShards(2), omegasm.WithBatchSize(32))
	if err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	defer s.Close()
	if !s.WaitForAgreement(10 * time.Second) {
		return fmt.Errorf("sharded: no agreement within 10s")
	}
	ctx := context.Background()
	entries := make([]omegasm.Entry, 64)
	var seq int
	var opErr error
	per := perOp(3*rungBudget, 8, func(n int) {
		for b := 0; b < n && opErr == nil; b++ {
			for i := range entries {
				seq++
				entries[i] = omegasm.Entry{Key: uint16(seq % 4096), Val: uint16(seq)}
			}
			opErr = s.MultiPut(ctx, entries...)
		}
	})
	if opErr != nil {
		return opErr
	}
	m["sharded.multiput_us_per_write"] = sample{per.v / 1e3 / float64(len(entries)), per.n * int64(len(entries))}
	return nil
}

func ladderSim(e env, m map[string]sample) error {
	// The committed regression scenarios, replayed byte for byte.
	files, err := filepath.Glob(filepath.Join(e.root, "testdata", "scenarios", "*.json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no scenario fixtures under %s", filepath.Join(e.root, "testdata", "scenarios"))
	}
	sort.Strings(files)
	scenarios := make([]*omegasm.Scenario, len(files))
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		scenarios[i] = &omegasm.Scenario{}
		if err := json.Unmarshal(raw, scenarios[i]); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	t0 := time.Now()
	for i, sc := range scenarios {
		if err := sc.Replay(); err != nil {
			return fmt.Errorf("%s: %w", files[i], err)
		}
	}
	m["sim.fixtures_replay_ms"] = sample{durMS(time.Since(t0)), int64(len(scenarios))}

	// The packaged campaign driver, one seed per grid point.
	t0 = time.Now()
	rep, err := omegasm.RunCampaign(omegasm.CampaignConfig{Seeds: 1, SeedBase: e.seed * 100_000})
	if err != nil {
		return err
	}
	if rep.ViolationRuns > 0 {
		return fmt.Errorf("RunCampaign: %d runs with violations", rep.ViolationRuns)
	}
	m["sim.campaign_runs_per_s"] = sample{float64(rep.Runs) / time.Since(t0).Seconds(), int64(rep.Runs)}
	return nil
}
