// Package trace analyzes runs: it detects stabilization of the leader
// oracle and turns the paper's theorems into checkable verdicts over the
// shared-memory census.
//
// Mapping from paper claims to verdicts:
//
//   - Eventual Leadership (Section 2.2): Stabilization finds the earliest
//     time from which every non-crashed process reports the same, correct
//     leader until the end of the run.
//   - Theorem 3 (write efficiency of Algorithm 1): after stabilization the
//     writer set is exactly {leader} and the only register still written
//     is PROGRESS[leader].
//   - Theorem 2 / Theorem 6 (boundedness): after stabilization no register
//     value changes except PROGRESS[leader] (Algorithm 1) / none grows at
//     all (Algorithm 2 — booleans flip but stay in a 1-bit domain).
//   - Lemma 5 / Lemma 6: the leader keeps writing, every other correct
//     process keeps reading, in every suffix window.
//   - Corollary 1: with bounded memory, every correct process keeps
//     writing.
package trace

import (
	"fmt"
	"strings"

	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// Sample is one observation of every process's leader estimate.
// Leaders[p] is -1 if p had crashed by time T.
type Sample struct {
	T       vclock.Time
	Leaders []int
}

// Stabilization scans the samples of a run and returns the earliest time
// from which (a) every non-crashed process reports the same leader L,
// (b) L did not crash in the run, and (c) this remains true through the
// last sample. ok is false if the run never stabilizes.
func Stabilization(samples []Sample, crashed []bool) (t vclock.Time, leader int, ok bool) {
	if len(samples) == 0 {
		return 0, -1, false
	}
	// Walk backwards: find the longest suffix with a constant, common,
	// correct leader.
	last := samples[len(samples)-1]
	leader = commonLeader(last, crashed)
	if leader < 0 || crashed[leader] {
		return 0, -1, false
	}
	stabIdx := len(samples) - 1
	for i := len(samples) - 2; i >= 0; i-- {
		if commonLeader(samples[i], crashed) != leader {
			break
		}
		stabIdx = i
	}
	return samples[stabIdx].T, leader, true
}

// commonLeader returns the common leader estimate of all processes that
// are alive in the sample (and never crash later per crashed), or -1 if
// they disagree. Processes that crash later in the run are ignored: the
// oracle only constrains correct processes.
func commonLeader(s Sample, crashed []bool) int {
	leader := -2
	for p, l := range s.Leaders {
		if l == -1 || crashed[p] {
			continue // crashed (now or eventually): unconstrained
		}
		if leader == -2 {
			leader = l
		} else if leader != l {
			return -1
		}
	}
	if leader == -2 {
		return -1
	}
	return leader
}

// LeaderChangesAfter counts, over all processes, the sample-to-sample
// leader-estimate changes at or after time t. A run that stabilized has 0;
// the Figure 4 strawman keeps accumulating them forever.
func LeaderChangesAfter(samples []Sample, t vclock.Time) int {
	changes := 0
	var prev []int
	for _, s := range samples {
		// prev tracks the estimates of the last sample strictly before
		// the current one, even outside the window, so a change landing
		// on the first in-window sample is counted.
		if prev != nil && s.T >= t {
			for p := range s.Leaders {
				if s.Leaders[p] != -1 && prev[p] != -1 && s.Leaders[p] != prev[p] {
					changes++
				}
			}
		}
		prev = s.Leaders
	}
	return changes
}

// Verdict is the outcome of checking one paper claim on one run.
type Verdict struct {
	Claim  string
	OK     bool
	Detail string
}

func (v Verdict) String() string {
	status := "PASS"
	if !v.OK {
		status = "FAIL"
	}
	return fmt.Sprintf("%-4s %-34s %s", status, v.Claim, v.Detail)
}

// Report is a set of verdicts for one run.
type Report struct {
	Verdicts []Verdict
}

// Add appends a verdict.
func (r *Report) Add(claim string, ok bool, detail string) {
	r.Verdicts = append(r.Verdicts, Verdict{Claim: claim, OK: ok, Detail: detail})
}

// AllOK reports whether every verdict passed.
func (r *Report) AllOK() bool {
	for _, v := range r.Verdicts {
		if !v.OK {
			return false
		}
	}
	return true
}

func (r *Report) String() string {
	var b strings.Builder
	for _, v := range r.Verdicts {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckEventualLeadership adds the Validity + Eventual Leadership verdict
// for a run and returns the stabilization point.
func CheckEventualLeadership(r *Report, samples []Sample, crashed []bool) (t vclock.Time, leader int, ok bool) {
	t, leader, ok = Stabilization(samples, crashed)
	if !ok {
		r.Add("EventualLeadership", false, "no common correct leader suffix")
		return t, leader, ok
	}
	valid := leader >= 0 && leader < len(crashed)
	r.Add("Validity", valid, fmt.Sprintf("leader=%d", leader))
	correct := valid && !crashed[leader]
	r.Add("EventualLeadership", correct,
		fmt.Sprintf("leader=%d stabilized at t=%d (end=%d)", leader, t, samples[len(samples)-1].T))
	return t, leader, ok && correct
}

// CheckWriteEfficiency adds Theorem 3's verdict: in the census diff
// window (post-stabilization), the writer set is exactly {leader} and the
// only written register is PROGRESS[leader].
func CheckWriteEfficiency(r *Report, diff *shmem.CensusSnapshot, leader int) {
	writers := diff.Writers()
	okWriters := len(writers) == 1 && writers[0] == leader
	r.Add("Thm3/writers", okWriters, fmt.Sprintf("writers=%v want=[%d]", writers, leader))

	want := shmem.RegName("PROGRESS", leader)
	written := diff.WrittenRegisters()
	okRegs := len(written) == 1 && written[0] == want
	r.Add("Thm3/registers", okRegs, fmt.Sprintf("written=%v want=[%s]", written, want))
}

// CheckBoundedExceptProgress adds Theorem 2's verdict: in the diff window
// no register's value changed except PROGRESS[leader], which must have
// kept changing (the leader's liveness heartbeats, Lemma 5).
func CheckBoundedExceptProgress(r *Report, diff *shmem.CensusSnapshot, leader int) {
	want := shmem.RegName("PROGRESS", leader)
	changed := diff.ChangedRegisters()
	others := make([]string, 0, len(changed))
	sawProgress := false
	for _, name := range changed {
		if name == want {
			sawProgress = true
			continue
		}
		others = append(others, name)
	}
	r.Add("Thm2/bounded", len(others) == 0,
		fmt.Sprintf("changing registers besides %s: %v", want, others))
	r.Add("Lemma5/leaderWritesForever", sawProgress,
		fmt.Sprintf("%s changed in suffix window: %v", want, sawProgress))
}

// CheckReadersForever adds Lemma 6's verdict: every correct process other
// than the leader performed reads in the diff window.
func CheckReadersForever(r *Report, diff *shmem.CensusSnapshot, leader int, crashed []bool) {
	var silent []int
	readers := make(map[int]bool)
	for _, p := range diff.Readers() {
		readers[p] = true
	}
	for p := range crashed {
		if crashed[p] || p == leader {
			continue
		}
		if !readers[p] {
			silent = append(silent, p)
		}
	}
	r.Add("Lemma6/readersForever", len(silent) == 0,
		fmt.Sprintf("correct non-leaders with no suffix reads: %v", silent))
}

// CheckAllCorrectWriteForever adds Corollary 1's verdict for the bounded
// algorithm: every correct process wrote in the diff window.
func CheckAllCorrectWriteForever(r *Report, diff *shmem.CensusSnapshot, crashed []bool) {
	writers := make(map[int]bool)
	for _, p := range diff.Writers() {
		writers[p] = true
	}
	var silent []int
	for p := range crashed {
		if crashed[p] {
			continue
		}
		if !writers[p] {
			silent = append(silent, p)
		}
	}
	r.Add("Cor1/allCorrectWriteForever", len(silent) == 0,
		fmt.Sprintf("correct processes with no suffix writes: %v", silent))
}

// CheckBoundedMemory adds Theorem 6's verdict for Algorithm 2: every
// boolean register stayed in a 1-bit domain for the whole run, and every
// natural register (SUSPICIONS) stopped changing in the suffix window —
// i.e. nothing in the shared memory keeps growing. end is the final
// census; stab is the snapshot taken at stabilization time.
func CheckBoundedMemory(r *Report, end, stab *shmem.CensusSnapshot) {
	var wide []string
	for name, reg := range end.Regs {
		boolean := reg.Class == "PROGRESS" || reg.Class == "LAST" || reg.Class == "STOP"
		if boolean && reg.Bits() > 1 {
			wide = append(wide, name)
		}
	}
	r.Add("Thm6/booleans1bit", len(wide) == 0,
		fmt.Sprintf("boolean registers wider than 1 bit: %v", wide))

	diff := end.Diff(stab)
	var growing []string
	for name, d := range diff.Regs {
		if d.Class == "SUSPICIONS" && d.DistinctValues > 0 {
			growing = append(growing, name)
		}
	}
	r.Add("Thm6/suspicionsStabilize", len(growing) == 0,
		fmt.Sprintf("SUSPICIONS still changing after stabilization: %v (footprint %d bits)",
			growing, end.TotalBits()))
}

// CheckAlgo2WriteSet adds Theorem 7's verdict: in the diff window, value
// changes happen only on PROGRESS[leader][*] (written by the leader) and
// LAST[leader][i] (written by each correct watcher i).
func CheckAlgo2WriteSet(r *Report, diff *shmem.CensusSnapshot, leader int, crashed []bool) {
	var rogue []string
	for _, name := range diff.ChangedRegisters() {
		reg := diff.Regs[name]
		okName := false
		switch reg.Class {
		case "PROGRESS":
			okName = strings.HasPrefix(name, fmt.Sprintf("PROGRESS[%d][", leader))
		case "LAST":
			okName = strings.HasPrefix(name, fmt.Sprintf("LAST[%d][", leader))
		}
		if !okName {
			rogue = append(rogue, name)
		}
	}
	r.Add("Thm7/writeSet", len(rogue) == 0,
		fmt.Sprintf("changing registers outside PROGRESS[%d][*]/LAST[%d][*]: %v", leader, leader, rogue))
}
