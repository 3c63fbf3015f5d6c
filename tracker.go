package omegasm

import (
	"omegasm/internal/consensus"
	"omegasm/internal/vclock"
)

// trackedWrite is one command a writeTracker follows from its first
// submission to the commit that confirms it.
type trackedWrite struct {
	cmd uint32
	// submittedTo and submitGen name the reign the command is queued
	// under: the replica it was handed to (-1: none yet) and that
	// replica's drop generation at the time.
	submittedTo int
	submitGen   uint64
	// doneAt is when the write was confirmed, -1 until then.
	doneAt vclock.Time
	// next chains the waiters of one command (-1 ends the chain).
	next int
}

// done reports whether the write has been confirmed.
func (w *trackedWrite) done() bool { return w.doneAt >= 0 }

// writeTracker is the client write protocol, shared by KV.PutAll and the
// simulator's workload machines: submit every tracked command once per
// reign of the write target (kvEnv.target: the agreed leader, or during
// anarchy the first survivor that names itself), resubmit when the
// target moves or a flap sweeps its queue, and confirm a command only by
// a log entry appended after the tracker started watching it.
//
// Confirmation keeps one advancing watermark per replica: each appended
// region of a replica's committed stream is scanned exactly once, against
// a command → waiters index, so a poll costs O(new commits) whatever the
// number of writes in flight and an identical historical write never
// counts as a later call's success. If a checkpoint summarizes entries
// away before they are scanned they simply never confirm and the command
// is resubmitted — duplicates apply idempotently.
type writeTracker struct {
	env *kvEnv
	// writes holds every tracked write in submission order (resubmissions
	// preserve it); first is the oldest one not yet confirmed.
	writes []trackedWrite
	first  int
	// outstanding counts the writes not yet confirmed.
	outstanding int
	// waiters maps a command to the head of its chain of unconfirmed
	// writes. A tracker made for a single write — every Put — matches it
	// directly instead and carries no index (nil).
	waiters map[uint32]int
	// marks[i] is how far replica i's stream has been scanned.
	marks []int
	// now is the time of the poll in progress (confirmations' doneAt).
	now vclock.Time
}

// newWriteTracker starts watching at the replicas' current commit
// positions: only entries appended from here on can confirm a write.
// capacity is how many writes it will be asked to track at most.
func newWriteTracker(env *kvEnv, capacity int) writeTracker {
	t := writeTracker{
		env:    env,
		writes: make([]trackedWrite, 0, capacity),
		marks:  make([]int, len(env.stores)),
	}
	if capacity > 1 {
		t.waiters = make(map[uint32]int, capacity)
	}
	for i, s := range env.stores {
		t.marks[i] = s.CommittedLen()
	}
	return t
}

// head returns the first of the unconfirmed writes waiting for cmd, -1 if
// there is none.
func (t *writeTracker) head(cmd uint32) int {
	if j, ok := t.waiters[cmd]; ok {
		return j
	}
	if t.waiters == nil && len(t.writes) == 1 && t.writes[0].cmd == cmd {
		return 0
	}
	return -1
}

// add starts tracking one write of cmd and returns its index in writes.
// Call confirm first when time has passed since the last poll, so the
// watermarks stand at the present.
func (t *writeTracker) add(cmd uint32) int {
	j := len(t.writes)
	t.writes = append(t.writes, trackedWrite{cmd: cmd, submittedTo: -1, doneAt: -1, next: t.head(cmd)})
	if t.waiters != nil {
		t.waiters[cmd] = j
	}
	t.outstanding++
	return j
}

// confirm scans what every live replica appended since the last poll.
func (t *writeTracker) confirm(now vclock.Time) {
	t.now = now
	for i := range t.env.stores {
		if t.env.alive(i) {
			t.scan(i)
		}
	}
}

// scan advances replica i's watermark over its newly appended entries.
// If a checkpoint summarized some of them away before this scan, a write
// queued on i may be among the ones never seen: forget that it was
// submitted, so the next submit hands it over again instead of waiting
// forever for a confirmation that cannot come.
func (t *writeTracker) scan(i int) {
	var skipped int
	t.marks[i], skipped = t.env.stores[i].VisitTail(t.marks[i], t.observe)
	if skipped == 0 {
		return
	}
	for j := t.first; j < len(t.writes); j++ {
		if w := &t.writes[j]; w.submittedTo == i {
			w.submittedTo = -1
		}
	}
}

// observe confirms every write waiting for cmd.
func (t *writeTracker) observe(cmd uint32) {
	j := t.head(cmd)
	if j < 0 {
		return // the common case on a busy log: somebody else's command
	}
	delete(t.waiters, cmd)
	for ; j >= 0; j = t.writes[j].next {
		t.finish(j)
	}
}

// finish marks write j confirmed by the poll in progress.
func (t *writeTracker) finish(j int) {
	if w := &t.writes[j]; !w.done() {
		w.doneAt = t.now
		t.outstanding--
	}
}

// submit hands the target every unconfirmed write it does not already
// hold under its current reign, in submission order and under one lock
// acquisition, so a batched log packs the group into as few slots as the
// batch size allows. A write is resubmitted when the target moves, and
// also when the target's queue was swept since the submit (its drop
// generation moved): a flap nobody polled through takes the queued
// remainder with it. It returns the target (-1: none) and whether
// anything was queued, so the caller can wake that replica.
func (t *writeTracker) submit(now vclock.Time) (target int, queued bool, err error) {
	l, _ := t.env.target()
	if l < 0 {
		return -1, false, nil
	}
	t.now = now
	for t.first < len(t.writes) && t.writes[t.first].done() {
		t.first++
	}
	store := t.env.stores[l]
	gen := store.DropGeneration()
	var few [8][2]uint16 // keeps a Put's or a small group's handover off the heap
	pairs := few[:0]
	for j, scanned := t.first, false; j < len(t.writes); j++ {
		w := &t.writes[j]
		if w.done() || (w.submittedTo == l && w.submitGen == gen) {
			continue
		}
		if !scanned {
			// Re-scan the target's commits right before resubmitting: an
			// entry may have committed since the last confirm, and a
			// needless duplicate burns log capacity forever.
			scanned = true
			if t.scan(l); w.done() {
				continue
			}
		}
		k, v := consensus.DecodeSet(w.cmd)
		pairs = append(pairs, [2]uint16{k, v})
		w.submittedTo, w.submitGen = l, gen
		if t.env.ackAtSubmit {
			t.finish(j)
		}
	}
	if len(pairs) == 0 {
		return l, false, nil
	}
	return l, true, store.SetAll(pairs...)
}
