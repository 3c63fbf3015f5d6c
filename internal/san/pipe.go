package san

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the pipelined disk I/O path of the register layer
// (san.go): single-register quorum reads and writes, and the batched row
// reads of DiskMem.ReadRow. Before it, every quorum operation spawned one
// goroutine per disk and waited for the whole fan-out to wind down before
// the caller could issue its next operation: slot N fully completed
// before slot N+1 started, and each goroutine + response channel was a
// fresh allocation on the commit hot path.
//
// Now each disk owns one long-lived pump goroutine fed by a bounded
// request queue (the in-flight window). Submitting a quorum operation
// enqueues one request per disk and returns to gathering acks; the next
// operation's requests can enter the windows while this one's stragglers
// are still in flight. Three properties the consensus layers rely on:
//
//   - Order preservation. A pump serves its queue FIFO, so one disk
//     acknowledges requests in submission order and a register's
//     sequence-tagged writes land in order (Disk.WriteBlock would mask
//     reordering anyway; FIFO makes the common case exact).
//
//   - Pipelined latency. A request's simulated latency is charged from
//     its submission time, not from when the pump reaches it: completion
//     time is max(previous completion, submitted + drawn latency), the
//     service curve of a full-duplex link with command queuing. Queued
//     requests overlap their transfer latencies instead of summing them.
//
//   - Straggler accounting. A quorum call returns at majority, but its
//     per-disk requests remain live until every disk acknowledged. A
//     reference count hands the call object (requests, ack channel and
//     result buffers) back to a pool only when the last ack lands, so the
//     hot path recycles instead of allocating, without a use-after-free
//     when a slow disk acks an operation the caller finished long ago.
//
// Scatter-gather: a multi-block read (a register memory reading whole
// rows, such as a consensus slot's three) is one request and one latency
// draw per disk, not one per block — the command-queuing model again: one
// round trip carries the whole batch of read commands.

// pipeWindow bounds the in-flight requests per disk. Submission blocks
// when a disk's window is full, which backpressures a fast proposer
// instead of queueing unboundedly behind a slow disk.
const pipeWindow = 64

type pipeKind uint8

const (
	opRead   pipeKind = iota // single block: results in rseq, rval
	opGather                 // scatter-gather read: results in seqs, vals
	opWrite                  // single block write of (seq, val)
)

// pipeOp is one per-disk request of a quorum call. The ops live inside
// their quorumCall and are reused across calls; every request field is
// rewritten at submission.
type pipeOp struct {
	kind pipeKind
	name string // opRead / opWrite block name
	// names are the opGather block names, window after window: the call's
	// own list (quorumCall.windows) of aliased, caller-immutable windows.
	names     [][]string
	seq, val  uint64    // opWrite payload
	submitted time.Time // latency accounting starts at submission

	rseq, rval uint64   // opRead result
	seqs, vals []uint64 // opGather results, one per name, buffers reused
	err        error
	call       *quorumCall
}

// quorumCall is the bookkeeping for one fan-out: one request per disk,
// a buffered ack channel sized so no pump ever blocks sending, and the
// straggler reference count. pending starts at len(ops)+1 — one token
// per disk plus one for the submitter — and whoever drops it to zero
// recycles the call.
type quorumCall struct {
	ops     []pipeOp
	done    chan *pipeOp
	pending atomic.Int32
	// windows is the gather request every op of the call aliases. It
	// belongs to the call, not the caller, because straggler disks read it
	// after the quorum call has returned; it is rewritten only once the
	// last of them has acknowledged and the call was recycled.
	windows [][]string
}

var callPool sync.Pool

// getCall returns a call sized for disks in-flight requests. Calls whose
// size does not match the pooled one (clusters of different disk counts
// in one process) fall back to a fresh allocation.
func getCall(disks int) *quorumCall {
	c, _ := callPool.Get().(*quorumCall)
	if c == nil || len(c.ops) != disks {
		c = &quorumCall{
			ops:  make([]pipeOp, disks),
			done: make(chan *pipeOp, disks),
		}
		for i := range c.ops {
			c.ops[i].call = c
		}
	}
	c.pending.Store(int32(disks) + 1)
	return c
}

// release drops one reference; the last holder drains any unread acks
// and pools the call. The submitter must copy results out of received
// ops before calling release — afterwards the buffers may be rewritten
// by the next call.
func (c *quorumCall) release() {
	if c.pending.Add(-1) != 0 {
		return
	}
	for {
		select {
		case <-c.done:
		default:
			callPool.Put(c)
			return
		}
	}
}

// enqueue hands op to the disk's pump, lazily starting it. After Close
// the request is served synchronously on the caller (the unpipelined
// path), so late teardown-ordering submissions degrade instead of
// deadlocking on a dead pump.
func (d *Disk) enqueue(op *pipeOp) {
	d.pipeMu.RLock()
	if d.pipeClosed {
		d.pipeMu.RUnlock()
		d.sleep()
		d.runOp(op)
		op.call.done <- op
		op.call.release()
		return
	}
	d.pipeOnce.Do(func() {
		d.reqs = make(chan *pipeOp, pipeWindow)
		go d.pump(d.reqs)
	})
	d.reqs <- op
	d.pipeMu.RUnlock()
}

// Close retires the disk's pump goroutine; buffered requests are still
// served and acknowledged before it exits. Submissions racing Close hold
// the read lock, so Close cannot strand a request between the closed
// check and the channel send; submissions after Close take the
// synchronous fallback in enqueue. Idempotent.
func (d *Disk) Close() {
	d.pipeMu.Lock()
	defer d.pipeMu.Unlock()
	if d.pipeClosed {
		return
	}
	d.pipeClosed = true
	if d.reqs != nil {
		close(d.reqs)
	}
}

// pump serves one disk's request queue FIFO. Latency is charged from
// each request's submission time, so in-flight requests pipeline: the
// pump sleeps only for the portion of a request's latency that has not
// already elapsed while it was queued.
func (d *Disk) pump(reqs chan *pipeOp) {
	for op := range reqs {
		if lat := d.draw(); lat > 0 {
			if wait := time.Until(op.submitted.Add(lat)); wait > 0 {
				time.Sleep(wait)
			}
		}
		d.runOp(op)
		// Ack before release: release may recycle the call (if the
		// submitter already detached), and then the send would land on a
		// reused channel.
		op.call.done <- op
		op.call.release()
	}
}

// runOp executes the block operation itself; the latency was already
// charged by the pump (or enqueue's fallback path).
func (d *Disk) runOp(op *pipeOp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		op.err = ErrCrashed
		return
	}
	op.err = nil
	switch op.kind {
	case opRead:
		b := d.blocks[op.name]
		if b.hasPrev && d.grayStaleRead() {
			op.rseq, op.rval = b.prevSeq, b.prevVal
		} else {
			op.rseq, op.rval = b.seq, b.val
		}
	case opGather:
		i := 0
		for _, window := range op.names {
			for _, name := range window {
				b := d.blocks[name]
				if b.hasPrev && d.grayStaleRead() {
					op.seqs[i], op.vals[i] = b.prevSeq, b.prevVal
				} else {
					op.seqs[i], op.vals[i] = b.seq, b.val
				}
				i++
			}
		}
	case opWrite:
		if d.grayDropWrite() {
			return // gray fault: acknowledged but never persisted
		}
		if b, ok := d.blocks[op.name]; !ok || op.seq > b.seq {
			d.blocks[op.name] = block{seq: op.seq, val: op.val, prevSeq: b.seq, prevVal: b.val, hasPrev: ok}
		}
	}
}

// writeQuorum writes (name, seq, val) through every disk's pipeline and
// returns once a majority acknowledged; ErrNoQuorum if too many disks
// failed. Minority stragglers keep draining in the background under the
// call's reference count.
func writeQuorum(disks []*Disk, name string, seq, val uint64) error {
	c := getCall(len(disks))
	now := time.Now()
	for i, d := range disks {
		op := &c.ops[i]
		op.kind, op.name, op.seq, op.val = opWrite, name, seq, val
		op.submitted = now
		d.enqueue(op)
	}
	need, got, failed := len(disks)/2+1, 0, 0
	var err error
	for got < need {
		op := <-c.done
		if op.err != nil {
			if failed++; failed > len(disks)-need {
				err = ErrNoQuorum
				break
			}
			continue
		}
		got++
	}
	c.release()
	return err
}

// readQuorum reads name from a majority of disks through their
// pipelines and returns the (seq, val) with the highest sequence seen.
func readQuorum(disks []*Disk, name string) (seq, val uint64, err error) {
	c := getCall(len(disks))
	now := time.Now()
	for i, d := range disks {
		op := &c.ops[i]
		op.kind, op.name = opRead, name
		op.submitted = now
		d.enqueue(op)
	}
	need, got, failed := len(disks)/2+1, 0, 0
	for got < need {
		op := <-c.done
		if op.err != nil {
			if failed++; failed > len(disks)-need {
				c.release()
				return 0, 0, ErrNoQuorum
			}
			continue
		}
		got++
		if op.rseq >= seq {
			seq, val = op.rseq, op.rval
		}
	}
	c.release()
	return seq, val, nil
}

// gatherQuorum reads every name of every window from a majority of disks
// — one scatter-gather request (and one latency draw) per disk — and
// merges highest-sequence-wins per name into bestSeq/bestVal, which the
// caller provides with one entry per name, windows concatenated in order.
// Missing blocks merge as zero. Each window must stay immutable for as
// long as its blocks exist (stragglers read it after the call returns);
// the list of windows itself is copied.
func gatherQuorum(disks []*Disk, windows [][]string, bestSeq, bestVal []uint64) error {
	c := getCall(len(disks))
	c.windows = append(c.windows[:0], windows...)
	names := len(bestSeq)
	now := time.Now()
	for i, d := range disks {
		op := &c.ops[i]
		op.kind, op.names = opGather, c.windows
		if cap(op.seqs) < names {
			op.seqs = make([]uint64, names)
			op.vals = make([]uint64, names)
		} else {
			op.seqs = op.seqs[:names]
			op.vals = op.vals[:names]
		}
		op.submitted = now
		d.enqueue(op)
	}
	need, got, failed := len(disks)/2+1, 0, 0
	for got < need {
		op := <-c.done
		if op.err != nil {
			if failed++; failed > len(disks)-need {
				c.release()
				return ErrNoQuorum
			}
			continue
		}
		got++
		for p := range bestSeq {
			if op.seqs[p] >= bestSeq[p] {
				bestSeq[p], bestVal[p] = op.seqs[p], op.vals[p]
			}
		}
	}
	c.release()
	return nil
}
