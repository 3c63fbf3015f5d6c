package san

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file implements Disk Paxos (Gafni & Lamport — the paper's
// reference [9]) directly over the simulated disks, as opposed to the
// register-based consensus in internal/consensus which runs over any
// shmem.Mem. Disk Paxos is the algorithm actually designed for the
// paper's motivating SAN deployment: each process owns one block per
// disk, writes only its own blocks, and reads everybody's from a majority
// of disks.
//
// A dblock is (mbal, bal, inp) packed into one 64-bit disk word so each
// block write is atomic on its disk:
//
//	bits 40..63: mbal (24 bits)   highest ballot the process entered
//	bits 16..39: bal  (24 bits)   ballot of the value it last accepted
//	bits  0..15: inp  (16 bits)   that value
//
// Ballots are below 2^24 and values below 2^16; Propose validates both.
// A committed value is published in a per-process commit block so
// followers and laggards terminate by polling.

// ErrValueRange is returned for inputs outside the 16-bit value space.
var ErrValueRange = errors.New("san: disk-paxos values must fit in 16 bits")

// ErrRoundsExhausted is returned when Propose gives up after MaxRounds
// ballots (e.g. because the oracle kept moving).
var ErrRoundsExhausted = errors.New("san: disk paxos gave up after max rounds")

const (
	dpMbalShift = 40
	dpBalShift  = 16
	dpFieldMask = 1<<24 - 1
	dpValMask   = 1<<16 - 1
)

func packDBlock(mbal, bal uint32, inp uint16) uint64 {
	return uint64(mbal&dpFieldMask)<<dpMbalShift |
		uint64(bal&dpFieldMask)<<dpBalShift |
		uint64(inp)
}

func unpackDBlock(w uint64) (mbal, bal uint32, inp uint16) {
	return uint32(w >> dpMbalShift & dpFieldMask),
		uint32(w >> dpBalShift & dpFieldMask),
		uint16(w & dpValMask)
}

// DiskPaxos is one consensus instance over a set of disks.
type DiskPaxos struct {
	disks []*Disk
	n     int
	tag   string

	// blockNames and commitNames are the per-process block names,
	// precomputed once so the scatter-gather reads (see pipe.go) can
	// alias one immutable name list per request instead of formatting
	// names on every phase.
	blockNames  []string
	commitNames []string

	// seq tags each process's disk writes so retries stay idempotent
	// (Disk.WriteBlock keeps the highest sequence number).
	mu  sync.Mutex
	seq map[int]uint64
}

// NewDiskPaxos creates an instance for n processes over the disks; tag
// namespaces the blocks so several instances can share disks.
func NewDiskPaxos(disks []*Disk, n int, tag string) (*DiskPaxos, error) {
	if len(disks) < 1 {
		return nil, fmt.Errorf("san: disk paxos needs at least one disk")
	}
	if n < 1 {
		return nil, fmt.Errorf("san: disk paxos needs at least one process")
	}
	dp := &DiskPaxos{
		disks: disks,
		n:     n,
		tag:   tag,
		seq:   make(map[int]uint64),
	}
	dp.blockNames = make([]string, n)
	dp.commitNames = make([]string, n)
	for p := 0; p < n; p++ {
		dp.blockNames[p] = dp.blockName(p)
		dp.commitNames[p] = dp.commitName(p)
	}
	return dp, nil
}

func (dp *DiskPaxos) quorum() int { return len(dp.disks)/2 + 1 }

func (dp *DiskPaxos) blockName(p int) string {
	return fmt.Sprintf("dp/%s/b%d", dp.tag, p)
}

func (dp *DiskPaxos) commitName(p int) string {
	return fmt.Sprintf("dp/%s/c%d", dp.tag, p)
}

func (dp *DiskPaxos) nextSeq(p int) uint64 {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	dp.seq[p]++
	return dp.seq[p]
}

// writeMajority writes (name, val) through every disk's pipeline and
// returns once a majority acknowledged; it errors if a majority is
// unreachable. Minority stragglers drain in the background, so the next
// phase's requests enter the disks' windows while they finish — slot
// N+1's writes no longer wait for slot N's full fan-out to wind down.
func (dp *DiskPaxos) writeMajority(p int, name string, val uint64) error {
	return writeQuorum(dp.disks, name, dp.nextSeq(p), val)
}

// readAllMajority reads every process's dblock from a majority of disks
// and returns, per process, the block with the highest sequence number
// seen. Missing blocks read as zero. Each disk serves the whole batch as
// one scatter-gather request — one queued command and one latency draw —
// instead of n sequential block reads.
func (dp *DiskPaxos) readAllMajority(reader int) ([]uint64, error) {
	best := make([]uint64, dp.n)
	bestSeq := make([]uint64, dp.n)
	if err := gatherQuorum(dp.disks, [][]string{dp.blockNames}, bestSeq, best); err != nil {
		return nil, err
	}
	return best, nil
}

// checkCommit polls the commit blocks; ok reports whether some process
// has published a decision. One scatter-gather per disk covers all n
// commit blocks; a majority suffices because a published decision was
// acknowledged by a majority, which intersects the one read here.
func (dp *DiskPaxos) checkCommit(reader int) (uint16, bool, error) {
	vals := make([]uint64, dp.n)
	seqs := make([]uint64, dp.n)
	if err := gatherQuorum(dp.disks, [][]string{dp.commitNames}, seqs, vals); err != nil {
		return 0, false, err
	}
	for _, v := range vals {
		if v>>16 != 0 { // committed flag in bit 16
			return uint16(v & dpValMask), true, nil
		}
	}
	return 0, false, nil
}

// ProposeConfig tunes a Propose call.
type ProposeConfig struct {
	// MaxRounds bounds the ballots attempted; default 64.
	MaxRounds int
	// Backoff is the pause between oracle polls while not leading;
	// default 1ms.
	Backoff time.Duration
}

func (c *ProposeConfig) normalize() {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 64
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
}

// Propose runs Disk Paxos for process id with the given input, gated by
// the omega oracle for liveness: the process only advances ballots while
// the oracle names it leader, and otherwise polls for a published
// decision. It blocks until a decision is known or MaxRounds ballots were
// burned.
func (dp *DiskPaxos) Propose(id int, input uint16, omega func() int, cfg ProposeConfig) (uint16, error) {
	if int(input) != int(uint64(input)&dpValMask) {
		return 0, ErrValueRange
	}
	if omega == nil {
		return 0, fmt.Errorf("san: nil omega oracle")
	}
	cfg.normalize()
	var ballot uint32
	for round := 0; round < cfg.MaxRounds; round++ {
		if v, ok, err := dp.checkCommit(id); err != nil {
			return 0, err
		} else if ok {
			return v, nil
		}
		if omega() != id {
			time.Sleep(cfg.Backoff)
			continue
		}
		// Phase 1: claim the next ballot congruent to id.
		blocks, err := dp.readAllMajority(id)
		if err != nil {
			return 0, err
		}
		maxM := uint32(0)
		for _, b := range blocks {
			if m, _, _ := unpackDBlock(b); m > maxM {
				maxM = m
			}
		}
		ballot = (maxM/uint32(dp.n)+1)*uint32(dp.n) + uint32(id) + 1
		_, myBal, myInp := unpackDBlock(blocks[id])
		if err := dp.writeMajority(id, dp.blockName(id), packDBlock(ballot, myBal, myInp)); err != nil {
			return 0, err
		}
		blocks, err = dp.readAllMajority(id)
		if err != nil {
			return 0, err
		}
		abort := false
		var chosen uint16
		var maxBal uint32
		chosen = input
		for _, b := range blocks {
			m, bal, inp := unpackDBlock(b)
			if m > ballot {
				abort = true
			}
			if bal > maxBal {
				maxBal, chosen = bal, inp
			}
		}
		if abort {
			continue
		}
		// Phase 2: accept the chosen value under this ballot.
		if err := dp.writeMajority(id, dp.blockName(id), packDBlock(ballot, ballot, chosen)); err != nil {
			return 0, err
		}
		blocks, err = dp.readAllMajority(id)
		if err != nil {
			return 0, err
		}
		for _, b := range blocks {
			if m, _, _ := unpackDBlock(b); m > ballot {
				abort = true
			}
		}
		if abort {
			continue
		}
		// Decided: publish.
		if err := dp.writeMajority(id, dp.commitName(id), 1<<16|uint64(chosen)); err != nil {
			return 0, err
		}
		return chosen, nil
	}
	return 0, ErrRoundsExhausted
}
