package omegasm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"omegasm/internal/consensus"
	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/lease"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// simRun holds one shard's machinery while the engine executes it.
type simRun struct {
	procs []core.Proc
	// kvEnv is the environment the shared replica driver, leadership
	// watcher and write trackers run in: the replicas' stores, the
	// deterministic leader view, and the lease of a leased run.
	kvEnv
	ids     []int // replica machine ids, for wake notifications
	client  simClient
	watcher leaderWatcher
	monitor *simLeaseMonitor // the lease-read client of a leased run

	// rec is the scenario recorder of a recorded run, nil otherwise.
	rec *simHistoryRecorder
}

// agreedLeader returns the common leader estimate of all live processes,
// or (-1, false) while they disagree (the live AgreedLeader, evaluated
// deterministically inside the simulation).
func (r *simRun) agreedLeader() (int, bool) {
	leader := -1
	for p := range r.procs {
		if !r.alive(p) {
			continue
		}
		l := r.procs[p].Leader()
		if leader == -1 {
			leader = l
		} else if leader != l {
			return -1, false
		}
	}
	if leader == -1 || !r.alive(leader) {
		return -1, false
	}
	return leader, true
}

// simReplicaMachine runs the shared replica driver under the adversary's
// pacing. Unlike the live engine there is no burst draining: the pacing
// is the asynchrony model, so each wake is one micro-step.
type simReplicaMachine struct{ replicaDriver }

//omegalint:allow wakehint sim-only machine: each wake is one paced micro-step of the asynchrony model, so WakeNow cannot spin
func (m *simReplicaMachine) Step(now vclock.Time) engine.Hint {
	m.step(now)
	return engine.Now()
}

// simLeaseMonitor is the adversarial lease-read client of a leased run:
// every few ticks it performs the exact lease-read protocol (readable
// grant -> serve from the holder's applied state) and checks the two
// properties a lease read must never break, across any crash schedule:
//
//   - Reads never go back in time: the serving replica's applied
//     watermark is non-decreasing across consecutive lease reads, even
//     when the serving holder changes across a crash + re-acquisition.
//
//   - Reads are never stale: at the instant of a served read, no live
//     replica's committed stream exceeds the serving holder's applied
//     state. While a readable grant is valid its holder is the only
//     commit authority and applies its own commits in the same atomic
//     activation, so any exceedance means a second authority committed
//     under the lease — exactly the straddle the design must exclude.
//
// Violations are recorded as deterministic strings; a correct
// implementation never produces any.
type simLeaseMonitor struct {
	r *simRun

	reads       int
	fallbacks   int
	lastApplied int
	lastEpoch   uint64
	violations  []string
}

func (m *simLeaseMonitor) Step(now vclock.Time) engine.Hint {
	// The first lease read switches lease authority on, as a live store's
	// first ReadLease does.
	m.r.enableLease(now)
	holder, epoch, ok := m.r.lease.ReadableHolder(now)
	if !ok {
		m.fallbacks++
		return engine.At(now + 4)
	}
	m.reads++
	kv := m.r.stores[holder]
	applied := kv.Applied()
	if applied < m.lastApplied {
		m.violations = append(m.violations, fmt.Sprintf(
			"t=%d epoch=%d holder=%d: lease read went back in time (applied %d after %d)",
			now, epoch, holder, applied, m.lastApplied))
	}
	for p, other := range m.r.stores {
		if p != holder && m.r.alive(p) && other.CommittedLen() > applied {
			m.violations = append(m.violations, fmt.Sprintf(
				"t=%d epoch=%d holder=%d: stale lease read (replica %d committed %d > holder applied %d)",
				now, epoch, holder, p, other.CommittedLen(), applied))
		}
	}
	m.lastApplied, m.lastEpoch = applied, epoch
	return engine.At(now + 4)
}

// simArrival is one entry of the client's arrival list — a configured
// request, or a scheduled write as a write-only request — before, in or
// after flight.
type simArrival struct {
	req SimRequest
	// index is the request's position in the caller's Requests slice; -1
	// for a scheduled write, which has no per-request result.
	index int
	// write is an arrived write's entry in the client's tracker; -1 for
	// reads and for writes still to arrive.
	write int
	// answeredAt (-1 until then) and gotVal/gotOK are a read's completion
	// and observed answer, kept for the recorded history.
	answeredAt vclock.Time
	gotVal     uint16
	gotOK      bool
}

// simClient is the one simulated client of a shard. Requests and
// scheduled writes activate at their virtual times — never gated on
// earlier completions, exactly the open-loop client model — and each
// one's completion time is recorded. Reads are answered at activation
// from the freshest live replica's applied state; writes go through the
// shared write tracker, as a live Put's do. With a saturation window the
// client also refills closed-loop: whenever fewer than window tracked
// writes are outstanding it adds writes, so the shard's consensus
// pipeline is never starved and the committed count measures its
// capacity. While work is outstanding the machine runs adversary-paced
// (WakeNow), so activation and confirmation granularity is the same
// pacing noise every other machine of the model experiences.
type simClient struct {
	r        *simRun
	arrivals []simArrival // sorted by (At, configuration order)
	next     int
	t        writeTracker
	// window is the saturation window (0: none); refills counts the
	// writes it added, whose keys cycle over the low key space, far below
	// the reserved 0xFFFF row.
	window  int
	refills uint32
}

// doneAt returns when a completed, -1 while it is outstanding.
func (c *simClient) doneAt(a *simArrival) vclock.Time {
	if a.write >= 0 {
		return c.t.writes[a.write].doneAt
	}
	return a.answeredAt
}

//omegalint:allow wakehint sim-only machine: WakeNow only while writes are outstanding, and the seeded adversary paces every poll
func (c *simClient) Step(now vclock.Time) engine.Hint {
	// Confirm outstanding writes first, so a write activated this tick
	// cannot match a historical commit.
	c.t.confirm(now)
	for ; c.next < len(c.arrivals) && c.arrivals[c.next].req.At <= now; c.next++ {
		a := &c.arrivals[c.next]
		if !a.req.Read {
			a.write = c.t.add(consensus.EncodeSet(a.req.Key, a.req.Val))
			continue
		}
		// A read is local: answered by the freshest live replica's applied
		// state the moment the client's request is scheduled. Its open-loop
		// latency is the arrival queueing alone.
		if f := c.r.freshest(); f >= 0 {
			a.gotVal, a.gotOK = c.r.stores[f].Get(a.req.Key)
		}
		a.answeredAt = now
	}
	for ; c.t.outstanding < c.window; c.refills++ {
		c.t.add(consensus.EncodeSet(uint16(c.refills%1024), uint16(c.refills)))
	}
	outstanding := c.t.outstanding > 0
	// Validated configs hold no reserved pair, so the hand-over cannot fail.
	if l, queued, _ := c.t.submit(now); queued {
		c.r.wake(l)
	}
	if outstanding {
		return engine.Now()
	}
	if c.next < len(c.arrivals) {
		return engine.At(max(c.arrivals[c.next].req.At, now+1))
	}
	return engine.Park() // every request completed; nothing will reactivate us
}

// simElectionClasses names the register classes eligible for fault
// injection: the election layer's families, never the consensus log's.
func simElectionClasses() map[string]bool {
	return map[string]bool{
		core.ClassSuspicions: true,
		core.ClassProgress:   true,
		core.ClassStop:       true,
		core.ClassLast:       true,
		core.ClassNSusp:      true,
		core.ClassHB:         true,
		core.ClassSSusp:      true,
	}
}

// simBrownout wraps a pacing with the configured brownout window, or
// returns it unchanged when none is configured.
func simBrownout(f *SimFaults, p engine.Pacing) engine.Pacing {
	if !f.brownout() {
		return p
	}
	return engine.Brownout{
		P:      p,
		From:   vclock.Time(f.BrownoutFrom),
		To:     vclock.Time(f.BrownoutTo),
		Factor: vclock.Duration(f.BrownoutFactor),
	}
}

// addSimShard builds one shard's full stack — election processes,
// replicas over a (possibly batched) log, leadership watcher, lease
// monitor, client — and registers every machine on sim. Machines are
// added in a fixed order, so the run stays a pure function of (seed,
// config).
func addSimShard(sim *engine.Sim, cfg simShardConfig) (*simRun, error) {
	n := cfg.n
	mem := shmem.NewSimMem(n)
	run := &simRun{}
	// The simulator's side of the seam (see kvEnv): the deterministic
	// leader view, one micro-step per wake, eps 0, and no progress or
	// election hook — plus the seeded mutations, injected here and nowhere
	// else.
	run.kvEnv = kvEnv{
		leader:   run.agreedLeader,
		estimate: func(p int) int { return run.procs[p].Leader() },
		// The crash schedule, not engine state, decides liveness: a process
		// whose crash time has passed is dead even if no event has collected
		// it yet — matching how the sampler always treated crashes.
		alive: func(p int) bool {
			ct, ok := cfg.crashes[p]
			return !ok || sim.Now() < ct
		},
		wake:        func(i int) { sim.Notify(run.ids[i]) },
		burst:       1,
		ackAtSubmit: cfg.mutation == MutDropQuorumAck,
	}

	// The election build sees the (possibly) faulted view of the shared
	// memory; the consensus log below always gets the raw atomic memory,
	// so register faults probe the election algorithms' regular-register
	// tolerance without breaking the Paxos substrate's assumptions.
	var electionMem shmem.Mem = mem
	if cfg.faults.registerFaults() {
		electionMem = shmem.NewFaultMem(mem, shmem.FaultConfig{
			StaleReadP:     cfg.faults.StaleReadP,
			StaleWindow:    cfg.faults.StaleWindow,
			PartialViewP:   cfg.faults.PartialViewP,
			PartialViewLen: cfg.faults.PartialViewLen,
			Classes:        simElectionClasses(),
		}, sim.Now, sim.Rng())
	}

	run.procs = cfg.algorithm.build(electionMem, n)

	// AWB1 needs one correct process with eventually bounded step gaps:
	// designate the lowest pid the crash schedule spares.
	awb := -1
	for p := 0; p < n; p++ {
		if _, crashes := cfg.crashes[p]; !crashes {
			awb = p
			break
		}
	}
	for p := 0; p < n; p++ {
		// The non-designated processes face the canonical asynchronous
		// adversary — usually prompt, occasionally stalled for hundreds of
		// ticks — so the run genuinely exercises asynchrony; the AWB1
		// process gets the same adversary with its delays clamped to delta,
		// which is what makes the designation (and the election's liveness)
		// real rather than vacuous.
		var pacing engine.Pacing = engine.HeavyTail{Min: 1, Max: 8, StallP: 0.01, StallMax: 256}
		if p == awb {
			pacing = engine.Clamp{P: pacing, Delta: 8}
		}
		// The brownout wraps outside the AWB1 clamp: inside the window
		// even the designated process slows, but the window is finite, so
		// the eventual bound survives. Skew draws happen in Add order, so
		// the per-process assignment is a pure function of the seed.
		pacing = simBrownout(cfg.faults, pacing)
		scale := vclock.Duration(4)
		if f := cfg.faults; f != nil && f.TimerSkewMax > 0 {
			scale += vclock.Duration(sim.Rng().Intn(f.TimerSkewMax + 1))
		}
		opts := []engine.SimOpt{
			engine.WithPacing(pacing),
			engine.WithTimer(vclock.Exact{Scale: scale, Floor: 1}, 1),
		}
		if ct, ok := cfg.crashes[p]; ok {
			opts = append(opts, engine.WithCrashAt(ct))
		}
		sim.Add(engine.AlwaysReady(run.procs[p]), opts...)
	}

	log, err := consensus.NewCheckpointLog(mem, n, cfg.slots, cfg.batch, cfg.ckptEvery)
	if err != nil {
		return nil, fmt.Errorf("omegasm: sim log: %w", err)
	}
	if cfg.lease > 0 {
		run.lease = &lease.Register{}
		run.lease.EnableHistory()
		run.leaseDur = cfg.lease
		if cfg.mutation == MutPrematureLeaseExtend {
			// The acquire guard runs with a negative skew bound, admitting a
			// new grant while the previous one is still valid.
			run.acquireEps = -2 * cfg.lease
		}
	}
	run.stores = make([]*consensus.KV, n)
	for i := range run.stores {
		kv, err := newStore(log, i, run.procs[i].Leader, &run.kvEnv)
		if err != nil {
			return nil, fmt.Errorf("omegasm: sim replica %d: %w", i, err)
		}
		if cfg.record {
			if run.rec == nil {
				run.rec = &simHistoryRecorder{order: make(map[int]uint32)}
			}
			rec := run.rec
			kv.SetApplyObserver(func(pos int, cmd uint32) {
				rec.note(pos, cmd, sim.Now())
			})
		}
		run.stores[i] = kv
		opts := []engine.SimOpt{engine.WithPacing(simBrownout(cfg.faults, engine.Uniform{Min: 1, Max: 8}))}
		if ct, ok := cfg.crashes[i]; ok {
			opts = append(opts, engine.WithCrashAt(ct))
		}
		run.ids = append(run.ids, sim.Add(&simReplicaMachine{replicaDriver{env: &run.kvEnv, idx: i}}, opts...))
	}

	run.watcher = newLeaderWatcher(&run.kvEnv)
	sim.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint {
		run.watcher.observe()
		return engine.At(now + 16)
	}), engine.WithFirstWakeAt(16))
	if run.lease != nil {
		// A leased run reads under the lease from its first tick: the
		// monitor's first read switches lease authority on before any
		// process can have named a leader, so no write of a leased run
		// is ever gated on the target instead of the lease.
		run.monitor = &simLeaseMonitor{r: run}
		sim.Add(run.monitor, engine.WithFirstWakeAt(1))
	}

	arrivals := cfg.arrivals
	slices.SortStableFunc(arrivals, func(a, b simArrival) int { return cmp.Compare(a.req.At, b.req.At) })
	run.client = simClient{r: run, arrivals: arrivals, window: cfg.window,
		t: newWriteTracker(&run.kvEnv, len(arrivals)+cfg.window)}
	if len(arrivals) > 0 || cfg.window > 0 {
		// A saturating client starts at once, any other at its first arrival.
		first := vclock.Time(1)
		if cfg.window == 0 {
			first = max(arrivals[0].req.At, 1)
		}
		sim.Add(&run.client, engine.WithFirstWakeAt(first))
	}
	return run, nil
}

// SimKV executes one deterministic run of the full consensus/KV stack
// under the virtual-time engine and returns its reproducible outcome:
// same config (and seed), same committed history, byte for byte. Use it
// to script failover scenarios — crash the leader mid-workload, replay
// with another seed, diff the histories — that the live runtime can only
// approximate statistically.
func SimKV(cfg SimKVConfig) (*SimKVResult, error) {
	shard, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	sim, err := engine.NewSim(engine.SimConfig{Seed: cfg.Seed, Horizon: cfg.Horizon})
	if err != nil {
		return nil, err
	}
	run, err := addSimShard(sim, shard)
	if err != nil {
		return nil, err
	}
	return run.collect(sim.Run()), nil
}

// SimShardedKV executes one deterministic run of a whole sharded store
// under the virtual-time engine: same config (and seed), same per-shard
// committed histories, byte for byte. Use it to script cross-shard
// failover scenarios (crash one shard's leader mid-workload and replay).
// Because every machine has its own virtual processor, the aggregate
// commit count of saturated shards measures the architecture's parallel
// capacity exactly.
func SimShardedKV(cfg SimShardedKVConfig) (*SimShardedKVResult, error) {
	shardCfgs, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	sim, err := engine.NewSim(engine.SimConfig{Seed: cfg.Seed, Horizon: cfg.Horizon})
	if err != nil {
		return nil, err
	}
	runs := make([]*simRun, len(shardCfgs))
	for s, sc := range shardCfgs {
		if runs[s], err = addSimShard(sim, sc); err != nil {
			return nil, fmt.Errorf("omegasm: shard %d: %w", s, err)
		}
	}
	end := sim.Run()
	res := &SimShardedKVResult{
		State: make(map[uint16]uint16),
		End:   end,
	}
	for _, run := range runs {
		sr := run.collect(end)
		res.Shards = append(res.Shards, *sr)
		res.TotalCommitted += sr.CommittedTotal
		res.TotalSlots += sr.SlotsUsed
		res.Delivered += sr.Delivered
		res.Requests = append(res.Requests, sr.Requests...)
		for k, v := range sr.State {
			res.State[k] = v
		}
	}
	sort.Slice(res.Requests, func(i, j int) bool { return res.Requests[i].Index < res.Requests[j].Index })
	return res, nil
}
