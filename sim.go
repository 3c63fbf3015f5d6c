package omegasm

import (
	"fmt"
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
	writer  *simWriter
	open    *simOpenLoad
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

// submit hands t's unconfirmed writes to the agreed leader and wakes it
// when anything was queued (validated configs hold no reserved pair, so
// the submission cannot fail).
func (r *simRun) submit(t *writeTracker, now vclock.Time) {
	if l, queued, _ := t.submit(now); queued {
		r.wake(l)
	}
}

// simWriter is the deterministic Put loop: it activates writes at their
// times and lets the shared write tracker submit, confirm and resubmit
// them.
type simWriter struct {
	r *simRun
	// writes is sorted by At; writes[i] is the tracker's write i once
	// activated.
	writes []SimWrite
	t      writeTracker
}

func (w *simWriter) Step(now vclock.Time) engine.Hint {
	// Confirm commits first, so a write activated this tick cannot match
	// a historical entry.
	w.t.confirm(now)
	next := len(w.t.writes)
	for ; next < len(w.writes) && w.writes[next].At <= now; next++ {
		w.t.add(consensus.EncodeSet(w.writes[next].Key, w.writes[next].Val))
	}
	outstanding := w.t.outstanding > 0
	w.r.submit(&w.t, now)
	if !outstanding && next == len(w.writes) {
		return engine.Park() // all delivered; nothing will reactivate us
	}
	wake := now + 8
	if !outstanding && w.writes[next].At > wake {
		wake = w.writes[next].At
	}
	return engine.At(wake)
}

// simOpenRequest is one open-loop request, before, in or after flight.
type simOpenRequest struct {
	req   SimRequest
	index int
	// write is an arrived write's entry in the load's tracker; -1 for
	// reads and for writes still to arrive.
	write int
	// answeredAt (-1 until then) and gotVal/gotOK are a read's completion
	// and observed answer, kept for the recorded history.
	answeredAt vclock.Time
	gotVal     uint16
	gotOK      bool
}

// simOpenLoad is the open-loop arrival machine of the load harness:
// requests activate at their scheduled virtual times — never gated on
// earlier completions, exactly the open-loop client model — and each
// one's completion time is recorded. Reads are answered at activation
// from the freshest live replica's applied state; writes go through the
// shared write tracker. While work is outstanding the machine runs
// adversary-paced (WakeNow), so activation and confirmation granularity
// is the same pacing noise every other machine of the model experiences.
type simOpenLoad struct {
	r    *simRun
	reqs []*simOpenRequest // sorted by (At, submission index)
	next int
	t    writeTracker
}

// doneAt returns when ar completed, -1 while it is outstanding.
func (w *simOpenLoad) doneAt(ar *simOpenRequest) vclock.Time {
	if ar.write >= 0 {
		return w.t.writes[ar.write].doneAt
	}
	return ar.answeredAt
}

//omegalint:allow wakehint sim-only machine: WakeNow only while requests are outstanding, and the seeded adversary paces every poll
func (w *simOpenLoad) Step(now vclock.Time) engine.Hint {
	// Confirm outstanding writes first, so a request activated this tick
	// cannot match a historical commit.
	w.t.confirm(now)
	for ; w.next < len(w.reqs) && w.reqs[w.next].req.At <= now; w.next++ {
		ar := w.reqs[w.next]
		if !ar.req.Read {
			ar.write = w.t.add(consensus.EncodeSet(ar.req.Key, ar.req.Val))
			continue
		}
		// A read is local: answered by the freshest live replica's applied
		// state the moment the client's request is scheduled. Its open-loop
		// latency is the arrival queueing alone.
		if f := w.r.freshest(); f >= 0 {
			ar.gotVal, ar.gotOK = w.r.stores[f].Get(ar.req.Key)
		}
		ar.answeredAt = now
	}
	outstanding := w.t.outstanding > 0
	w.r.submit(&w.t, now)
	if outstanding {
		return engine.Now()
	}
	if w.next < len(w.reqs) {
		return engine.At(max(w.reqs[w.next].req.At, now+1))
	}
	return engine.Park() // every request completed; nothing will reactivate us
}

// simLoadWriter is the closed-loop saturation workload of the scaling
// benchmark: it keeps window commands queued on the shard's agreed
// leader, refilling as batches commit, so the shard's consensus pipeline
// is never starved and the committed count measures its capacity. Keys
// cycle over the low key space; delivery is not tracked (the committed
// history is the measurement).
type simLoadWriter struct {
	r      *simRun
	window int
	nextK  uint32
}

func (w *simLoadWriter) Step(now vclock.Time) engine.Hint {
	l, ok := w.r.leader()
	if !ok {
		return engine.At(now + 16)
	}
	kv := w.r.stores[l]
	if kv.LogFull() {
		return engine.Park()
	}
	refilled := false
	for kv.PendingLen() < w.window {
		// Keys stay far below the reserved 0xFFFF row.
		if err := kv.Set(uint16(w.nextK%1024), uint16(w.nextK)); err != nil {
			break
		}
		w.nextK++
		refilled = true
	}
	if refilled {
		w.r.wake(l)
	}
	return engine.At(now + 4)
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
// replicas over a (possibly batched) log, leadership watcher, workload
// writers — and registers every machine on sim. Machines are added in a
// fixed order, so the run stays a pure function of (seed, config).
func addSimShard(sim *engine.Sim, cfg simShardConfig) (*simRun, error) {
	n := cfg.n
	mem := shmem.NewSimMem(n)
	run := &simRun{}
	// The simulator's side of the seam (see kvEnv): the deterministic
	// leader view, one micro-step per wake, eps 0, and no progress hook —
	// plus the seeded mutations, injected here and nowhere else.
	run.kvEnv = kvEnv{
		leader: run.agreedLeader,
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
		kv, err := newStore(log, i, run.procs[i].Leader, run.lease)
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

	run.watcher = leaderWatcher{env: &run.kvEnv, last: -1}
	sim.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint {
		run.watcher.observe()
		return engine.At(now + 16)
	}), engine.WithFirstWakeAt(16))
	if run.lease != nil {
		run.monitor = &simLeaseMonitor{r: run}
		sim.Add(run.monitor, engine.WithFirstWakeAt(16))
	}

	if len(cfg.writes) > 0 {
		writes := append([]SimWrite(nil), cfg.writes...)
		sort.SliceStable(writes, func(i, j int) bool { return writes[i].At < writes[j].At })
		run.writer = &simWriter{r: run, writes: writes, t: newWriteTracker(&run.kvEnv, len(writes))}
		sim.Add(run.writer, engine.WithFirstWakeAt(max(writes[0].At, 1)))
	}
	if len(cfg.requests) > 0 {
		reqs := make([]*simOpenRequest, 0, len(cfg.requests))
		for _, ir := range cfg.requests {
			reqs = append(reqs, &simOpenRequest{req: ir.req, index: ir.index, write: -1, answeredAt: -1})
		}
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].req.At < reqs[j].req.At })
		run.open = &simOpenLoad{r: run, reqs: reqs, t: newWriteTracker(&run.kvEnv, len(reqs))}
		sim.Add(run.open, engine.WithFirstWakeAt(max(reqs[0].req.At, 1)))
	}
	if cfg.window > 0 {
		sim.Add(&simLoadWriter{r: run, window: cfg.window}, engine.WithFirstWakeAt(16))
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
// failover scenarios (crash one shard's leader mid-workload and replay),
// and — with SaturateWindow — to measure how aggregate commit capacity
// scales with the shard count when every machine has its own virtual
// processor.
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
