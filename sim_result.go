package omegasm

import (
	"fmt"
	"sort"

	"omegasm/check"
	"omegasm/internal/consensus"
	"omegasm/internal/vclock"
)

// SimCommit is one committed command of a simulated run, in log order.
type SimCommit struct {
	// Key and Val are the committed command's decoded pair.
	Key, Val uint16
}

// SimRequestResult is the reproducible outcome of one SimRequest.
type SimRequestResult struct {
	// Index is the request's position in the submitted Requests slice.
	Index int
	// At echoes the request's arrival time in virtual ticks.
	At int64
	// Done is the virtual time the request completed — a write's commit
	// confirmation, a read's local answer — or -1 if it was still
	// outstanding at the horizon. Done - At is the request's open-loop
	// latency in ticks, arrival queueing included.
	Done int64
	// Read echoes the request's Read flag.
	Read bool
	// Class echoes the request's workload-class tag.
	Class int
}

// SimKVResult is the outcome of a simulated run. For a fixed SimKVConfig
// every field is reproducible run over run.
type SimKVResult struct {
	// Committed is the retained committed history in log order, taken
	// from the freshest live replica (all live replicas' streams agree on
	// their common prefix; this is consensus's safety). On a checkpointing
	// run it is the tail since that replica's last fully-applied
	// checkpoint — the sealed prefix is summarized by CommittedTotal and
	// reflected in State. Retries across failovers may commit a command
	// more than once; the store applies duplicates idempotently.
	Committed []SimCommit
	// CommittedTotal is the full committed-stream length of the freshest
	// live replica, including commands summarized away by checkpoints
	// (equal to len(Committed) when checkpointing never sealed).
	CommittedTotal int
	// Checkpoints is how many checkpoints the freshest live replica
	// passed; SnapshotInstalls counts the ones it passed by installing a
	// published snapshot rather than replaying.
	Checkpoints int
	// SnapshotInstalls counts snapshot installs at the freshest live
	// replica (see Checkpoints).
	SnapshotInstalls int
	// State is the freshest live replica's applied key-value state (the
	// last write per key of the committed stream, checkpointed prefix
	// included).
	State map[uint16]uint16
	// Delivered counts workload writes whose commit was confirmed before
	// the horizon.
	Delivered int
	// Crashed[p] reports whether process p crashed during the run.
	Crashed []bool
	// Leaders[p] is process p's final leader estimate, -1 if p crashed.
	Leaders []int
	// SlotsUsed is how many consensus slots the longest live replica
	// decided; with batching it lags len(Committed) by the average batch
	// size.
	SlotsUsed int
	// Requests holds one result per configured open-loop SimRequest,
	// ordered by Index (the submitted slice's order). Empty when the
	// config had no Requests.
	Requests []SimRequestResult
	// LeaseGrants is the full lease-acquisition history of a leased run
	// (SimKVConfig.Lease > 0), in acquisition order.
	LeaseGrants []SimLeaseGrant
	// LeaseReads counts monitor reads served lease-locally; LeaseFallbacks
	// counts monitor activations that found no readable grant (anarchy,
	// expiry, or a barrier still in flight) and would have fallen back to
	// a quorum read.
	LeaseReads, LeaseFallbacks int
	// LeaseViolations lists every lease-linearizability violation the
	// monitor or the history audit detected, humanly readable and
	// deterministic for a fixed config. A correct implementation always
	// leaves it empty; the seeded crash campaigns assert exactly that.
	LeaseViolations []string
	// History is the recorded check.History of a Record run, nil
	// otherwise. Pass it to check.Verify (or call Verify) for the full
	// linearizability/durability verdict.
	History *check.History
	// LeaderChanges counts agreed-leader changes the watcher observed
	// after the first election settled — the leader-churn anomaly metric
	// the campaign scorer ranks runs by.
	LeaderChanges int
	// CommitStallMax is the longest gap in virtual ticks between
	// consecutive newly learned commit positions on a Record run (plus
	// the tail gap to the horizon if writes were still undelivered);
	// 0 when not recording or nothing committed.
	CommitStallMax int64
	// End is the virtual time at which the run ended.
	End int64
}

// Verify runs the correctness checker over the run's recorded history.
// The run must have been executed with SimKVConfig.Record set; verdicts
// on unrecorded runs carry a single violation saying so.
func (r *SimKVResult) Verify(opt check.Options) check.Verdict {
	if r.History == nil {
		return check.Verdict{Violations: []string{"run was not recorded: set SimKVConfig.Record"}}
	}
	return check.Verify(r.History, opt)
}

// SimLeaseGrant is one recorded lease acquisition of a leased simulated
// run (the register history of internal/lease, decoded for results).
type SimLeaseGrant struct {
	// Epoch is the grant's epoch; strictly increasing across the history.
	Epoch uint64
	// Holder is the acquiring process.
	Holder int
	// AcquiredAt and Expiry bound the granted window in virtual ticks
	// (Expiry as granted; extensions push the live register further).
	AcquiredAt, Expiry int64
	// PrevExpiry is the previous grant's final expiry as observed by this
	// acquisition; AcquiredAt > PrevExpiry is the no-overlap invariant.
	PrevExpiry int64
}

// simHistoryRecorder merges every replica's apply observations into one
// view of the committed stream: position -> command, with divergence
// detection (two replicas individually applying different commands at
// one position would be a consensus safety break) and commit-stall
// tracking for the campaign's anomaly score.
type simHistoryRecorder struct {
	// order maps a committed-stream position to the command every
	// observing replica applied there.
	order map[int]uint32
	// divergences records cross-replica disagreements (capped; a correct
	// stack never produces any).
	divergences []string
	// lastCommitAt and maxStall track the largest gap between
	// consecutive newly learned positions.
	lastCommitAt vclock.Time
	maxStall     int64
}

// note records replica-observed command cmd at stream position pos.
func (rec *simHistoryRecorder) note(pos int, cmd uint32, now vclock.Time) {
	if prev, ok := rec.order[pos]; ok {
		if prev != cmd && len(rec.divergences) < 8 {
			rec.divergences = append(rec.divergences, fmt.Sprintf(
				"t=%d: replicas applied different commands at position %d (%#x vs %#x) — committed streams diverged",
				now, pos, prev, cmd))
		}
		return
	}
	rec.order[pos] = cmd
	if stall := int64(now - rec.lastCommitAt); stall > rec.maxStall {
		rec.maxStall = stall
	}
	rec.lastCommitAt = now
}

// collect assembles the shard's reproducible outcome at end time.
func (r *simRun) collect(end vclock.Time) *SimKVResult {
	n := len(r.procs)
	res := &SimKVResult{
		State:   make(map[uint16]uint16),
		Crashed: make([]bool, n),
		Leaders: make([]int, n),
		End:     end,
	}
	if r.writer != nil {
		res.Delivered = len(r.writer.t.writes) - r.writer.t.outstanding
	}
	res.LeaderChanges = r.watcher.changes
	if r.lease != nil {
		res.LeaseReads = r.monitor.reads
		res.LeaseFallbacks = r.monitor.fallbacks
		res.LeaseViolations = append(res.LeaseViolations, r.monitor.violations...)
		for _, g := range r.lease.History() {
			res.LeaseGrants = append(res.LeaseGrants, SimLeaseGrant(g))
		}
		// The history audit (epochs advance by one, windows never overlap,
		// observed expiries never regress) is the checker's lease pass,
		// run with eps 0: the deterministic engine has no clock skew.
		res.LeaseViolations = append(res.LeaseViolations,
			check.Leases(simCheckGrants(res.LeaseGrants), 0)...)
	}
	if r.open != nil {
		for _, ar := range r.open.reqs {
			rr := SimRequestResult{
				Index: ar.index,
				At:    ar.req.At,
				Done:  r.open.doneAt(ar),
				Read:  ar.req.Read,
				Class: ar.req.Class,
			}
			res.Requests = append(res.Requests, rr)
		}
		sort.Slice(res.Requests, func(i, j int) bool { return res.Requests[i].Index < res.Requests[j].Index })
	}
	for p := 0; p < n; p++ {
		res.Crashed[p], res.Leaders[p] = true, -1
		if r.alive(p) {
			res.Crashed[p], res.Leaders[p] = false, r.procs[p].Leader()
		}
	}
	freshest := r.freshest()
	if freshest >= 0 {
		kv := r.stores[freshest]
		res.CommittedTotal = kv.CommittedLen()
		res.SlotsUsed = kv.SlotsDecided()
		res.Checkpoints = kv.Checkpoints()
		res.SnapshotInstalls = kv.SnapshotInstalls()
		for _, cmd := range kv.Committed() {
			k, v := consensus.DecodeSet(cmd)
			res.Committed = append(res.Committed, SimCommit{Key: k, Val: v})
		}
		res.State = kv.Snapshot()
	}
	if r.rec != nil {
		res.CommitStallMax = r.rec.maxStall
		// The tail counts as a stall only when work was actually starved:
		// a run whose writes all delivered is simply done.
		if r.writer != nil && res.Delivered < len(r.writer.writes) {
			if tail := int64(end - r.rec.lastCommitAt); tail > res.CommitStallMax {
				res.CommitStallMax = tail
			}
		}
		res.History = r.assembleHistory(res, freshest)
	}
	return res
}

// assembleHistory renders a recorded run as the checker's History: the
// client operation events, the merged committed stream, the freshest
// replica's final applied state, the lease grants, and the in-run
// monitor's breaches (External — the grant audit is not duplicated
// there, Verify re-derives it from Grants).
func (r *simRun) assembleHistory(res *SimKVResult, freshest int) *check.History {
	h := &check.History{}
	if r.writer != nil {
		for i, tw := range r.writer.t.writes {
			wr := r.writer.writes[i]
			h.Ops = append(h.Ops, check.Op{Kind: check.Put, Key: wr.Key, Val: wr.Val, Invoke: wr.At, Return: tw.doneAt})
		}
	}
	if r.open != nil {
		for _, ar := range r.open.reqs {
			op := check.Op{Kind: check.Put, Client: ar.req.Client, Key: ar.req.Key, Val: ar.req.Val, Invoke: ar.req.At, Return: r.open.doneAt(ar)}
			if ar.req.Read {
				op.Kind, op.Mode, op.Val, op.Found = check.Get, check.Freshest, ar.gotVal, ar.gotOK
			}
			h.Ops = append(h.Ops, op)
		}
	}
	poss := make([]int, 0, len(r.rec.order))
	for p := range r.rec.order {
		poss = append(poss, p)
	}
	sort.Ints(poss)
	for _, p := range poss {
		k, v := consensus.DecodeSet(r.rec.order[p])
		h.Commits = append(h.Commits, check.Commit{Pos: p, Key: k, Val: v})
	}
	if freshest >= 0 {
		h.FinalApplied = r.stores[freshest].Applied()
		h.Final = res.State
	}
	h.Grants = simCheckGrants(res.LeaseGrants)
	if r.monitor != nil {
		h.External = append(h.External, r.monitor.violations...)
	}
	h.External = append(h.External, r.rec.divergences...)
	return h
}

// simCheckGrants converts result grants to the checker's grant type.
func simCheckGrants(gs []SimLeaseGrant) []check.Grant {
	out := make([]check.Grant, 0, len(gs))
	for _, g := range gs {
		out = append(out, check.Grant(g))
	}
	return out
}

// SimShardedKVResult is the reproducible outcome of a sharded simulated
// run.
type SimShardedKVResult struct {
	// Shards holds each shard's full outcome (committed history, state,
	// per-process fates), indexed by shard.
	Shards []SimKVResult
	// State is the union of the shards' states (hash partitioning makes
	// the key sets disjoint).
	State map[uint16]uint16
	// TotalCommitted is the total number of committed commands across
	// shards.
	TotalCommitted int
	// TotalSlots is the total number of consensus slots those commands
	// used; TotalCommitted/TotalSlots is the measured average batch size.
	TotalSlots int
	// Delivered counts tracked workload writes whose commit was confirmed
	// before the horizon, across all shards.
	Delivered int
	// Requests holds one result per configured open-loop SimRequest,
	// merged across shards and ordered by Index (the submitted slice's
	// order). Empty when the config had no Requests.
	Requests []SimRequestResult
	// End is the virtual time at which the run ended.
	End int64
}
