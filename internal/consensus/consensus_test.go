package consensus

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"omegasm/internal/shmem"
)

// stepAll drives the proposers in a seeded random interleaving until all
// decide or the step budget runs out.
func stepAll(t *testing.T, rng *rand.Rand, props []*Proposer, budget int) {
	t.Helper()
	for s := 0; s < budget; s++ {
		if allDecided(props) {
			return
		}
		props[rng.Intn(len(props))].Step(0)
	}
	t.Fatal("step budget exhausted before all proposers decided")
}

func allDecided(props []*Proposer) bool {
	for _, p := range props {
		if _, ok := p.Decided(); !ok {
			return false
		}
	}
	return true
}

func newInstanceProposers(t *testing.T, n int, omega func(i int) func() int) (*Instance, []*Proposer) {
	t.Helper()
	props := proposersOn(t, shmem.NewSimMem(n), n, omega)
	return props[0].inst, props
}

// proposersOn builds the n proposers of one instance on mem: proposer i
// proposes 100+i under the oracle omega(i).
func proposersOn(t *testing.T, mem shmem.Mem, n int, omega func(i int) func() int) []*Proposer {
	t.Helper()
	inst := NewInstance(mem, n, 0)
	props := make([]*Proposer, n)
	for i := 0; i < n; i++ {
		p, err := NewProposer(inst, i, uint32(100+i), omega(i))
		if err != nil {
			t.Fatal(err)
		}
		props[i] = p
	}
	return props
}

func checkAgreementValidity(t *testing.T, props []*Proposer) uint32 {
	t.Helper()
	v, err := agreement(props)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// agreement returns the value every proposer decided, or an error naming
// the undecided proposer or the violated property.
func agreement(props []*Proposer) (uint32, error) {
	decided := uint32(NoValue)
	for i, p := range props {
		v, ok := p.Decided()
		if !ok {
			return 0, fmt.Errorf("proposer %d undecided", i)
		}
		if decided == NoValue {
			decided = v
		} else if v != decided {
			return 0, fmt.Errorf("agreement violated: %d vs %d", v, decided)
		}
	}
	if decided < 100 || decided >= uint32(100+len(props)) {
		return 0, fmt.Errorf("validity violated: decided %d not among inputs", decided)
	}
	return decided, nil
}

// TestConsensusStableLeader: with a constant oracle only the leader
// proposes; everyone decides its value.
func TestConsensusStableLeader(t *testing.T) {
	_, props := newInstanceProposers(t, 4, func(i int) func() int {
		return func() int { return 2 }
	})
	rng := rand.New(rand.NewSource(1))
	stepAll(t, rng, props, 100_000)
	if v := checkAgreementValidity(t, props); v != 102 {
		t.Fatalf("decided %d, want the stable leader's input 102", v)
	}
	if r := props[2].Rounds(); r != 1 {
		t.Errorf("stable leader used %d ballots, want 1", r)
	}
}

// TestConsensusSafetyUnderLeaderChurn: every process believes IT is the
// leader — the worst case Omega ever produces. Safety (agreement +
// validity) must hold regardless; termination holds here because each
// decided proposer publishes its decision.
func TestConsensusSafetyUnderLeaderChurn(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		_, props := newInstanceProposers(t, 4, func(i int) func() int {
			return func() int { return i } // everyone self-proclaims
		})
		rng := rand.New(rand.NewSource(seed))
		stepAll(t, rng, props, 500_000)
		checkAgreementValidity(t, props)
	}
}

// TestConsensusOscillatingOracle: the oracle output flips among processes
// over time (anarchy period), then settles. Agreement must hold across
// the churn.
func TestConsensusOscillatingOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		step := 0
		_, props := newInstanceProposers(t, 3, func(i int) func() int {
			return func() int {
				if step < 200 {
					return (step / 10) % 3 // churn
				}
				return 0 // settled
			}
		})
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s < 200_000; s++ {
			step++
			props[rng.Intn(len(props))].Step(0)
			done := true
			for _, p := range props {
				if _, ok := p.Decided(); !ok {
					done = false
				}
			}
			if done {
				break
			}
		}
		checkAgreementValidity(t, props)
	}
}

// TestFollowersLearnFromDecisionRegisters: a follower whose oracle names
// someone else never proposes but still terminates by reading DEC.
func TestFollowersLearnFromDecisionRegisters(t *testing.T) {
	_, props := newInstanceProposers(t, 3, func(i int) func() int {
		return func() int { return 0 }
	})
	// Let only the leader run first.
	for s := 0; s < 100; s++ {
		props[0].Step(0)
		if _, ok := props[0].Decided(); ok {
			break
		}
	}
	if _, ok := props[0].Decided(); !ok {
		t.Fatal("leader did not decide alone")
	}
	if r := props[1].Rounds(); r != 0 {
		t.Fatalf("follower started %d ballots", r)
	}
	props[1].Step(0)
	if v, ok := props[1].Decided(); !ok || v != 100 {
		t.Fatalf("follower did not learn: (%d,%v)", v, ok)
	}
}

// TestCrashedProposerValueSurvives: a proposer that wrote phase-2 state
// and crashed may have its value adopted; at minimum, later ballots must
// not decide anything else if a decision already exists.
func TestCrashedProposerValueSurvives(t *testing.T) {
	inst, props := newInstanceProposers(t, 3, func(i int) func() int {
		return func() int { return i } // everyone proposes
	})
	p0 := props[0]
	// p0 runs alone up to (but not including) the decision write: ballot,
	// phase-1 scan, phase-2 write. Then it "crashes".
	p0.Step(0) // start ballot, write MBAL
	p0.Step(0) // phase 1 scan, write BALINP
	// p0's accepted (bal, value) is now visible; a later ballot by p1
	// must adopt p0's value.
	p1 := props[1]
	for s := 0; s < 1000; s++ {
		p1.Step(0)
		if _, ok := p1.Decided(); ok {
			break
		}
	}
	v, ok := p1.Decided()
	if !ok {
		t.Fatal("p1 never decided")
	}
	if v != 100 {
		t.Fatalf("p1 decided %d; must adopt the possibly-chosen value 100", v)
	}
	_ = inst
}

func TestProposerValidation(t *testing.T) {
	mem := shmem.NewSimMem(2)
	inst := NewInstance(mem, 2, 0)
	if _, err := NewProposer(inst, 0, NoValue, func() int { return 0 }); err == nil {
		t.Error("NoValue input accepted")
	}
	if _, err := NewProposer(inst, 0, 1, nil); err == nil {
		t.Error("nil oracle accepted")
	}
}

func TestBallotsAreUniquePerProcess(t *testing.T) {
	mem := shmem.NewSimMem(3)
	inst := NewInstance(mem, 3, 0)
	// Ballot formula: (floor/n+1)*n + id + 1 — distinct processes can
	// never produce the same ballot number.
	seen := map[uint32]int{}
	for id := 0; id < 3; id++ {
		p, err := NewProposer(inst, id, 1, func() int { return id })
		if err != nil {
			t.Fatal(err)
		}
		for floor := uint32(0); floor < 50; floor++ {
			p.startBallot(floor)
			if p.ballot <= floor {
				t.Fatalf("ballot %d not above floor %d", p.ballot, floor)
			}
			if owner, dup := seen[p.ballot]; dup && owner != id {
				t.Fatalf("ballot %d issued by both %d and %d", p.ballot, owner, id)
			}
			seen[p.ballot] = id
		}
	}
}

func TestPackUnpack(t *testing.T) {
	bal, v := unpackBalInp(packBalInp(7, 0xDEADBEEF))
	if bal != 7 || v != 0xDEADBEEF {
		t.Fatalf("balinp roundtrip: (%d,%x)", bal, v)
	}
	dv, ok := unpackDec(packDec(42))
	if !ok || dv != 42 {
		t.Fatalf("dec roundtrip: (%d,%v)", dv, ok)
	}
	if _, ok := unpackDec(0); ok {
		t.Fatal("zero register decoded as a decision")
	}
}

// interleaveMem calls between, when set, right after each read access
// returns and before the reading micro-step goes on to its write: other
// processes' steps then fall between a micro-step's read and its write,
// as they may on a live memory, where stepAll (one whole micro-step at a
// time) never puts them. Reads made inside between do not call it again.
type interleaveMem struct {
	shmem.Mem
	between func(pid int)
	inside  bool
}

func (m *interleaveMem) ReadRow(pid int, regs []shmem.Reg, out []uint64) {
	for i, r := range regs {
		out[i] = r.Read(pid)
	}
	if m.between != nil && !m.inside {
		m.inside = true
		m.between(pid)
		m.inside = false
	}
}

// staleStep is Step with the fold done wrong: phase 2 acts on the rows
// the phase-1 micro-step read, before the proposer's own BALINP write,
// instead of on a scan read after it. Its own access polls only DEC.
func staleStep(p *Proposer) {
	if p.decided || p.phase != phase2 || p.omega() != p.id {
		p.Step(0)
		return
	}
	if v, ok := p.inst.poll(p.id, p.row, false); ok {
		p.decide(v)
		return
	}
	p.advance(p.row) // row[:2N] still holds the phase-1 scan
}

// TestConsensusSafetyUnderPreemption is TestConsensusSafetyUnderLeaderChurn
// at access granularity: after each read access, one time in two a
// proposer is drawn and, unless it is the reader, runs one to four
// micro-steps before the reader goes on to its write. Step must keep
// agreement on every seed. staleStep must be caught on at least one, or
// the schedules miss what the folded read has to get right: A reads its
// phase-1 scan; before A writes BALINP, B starts a higher ballot and
// accepts its own value, since A's is not there yet; then both run phase
// 2 with their DEC polls empty. A phase 2 that reads MBAL after A's
// write sees B's ballot and retreats; one served from the phase-1 scan
// decides A's value while B decides its own. Whole micro-steps
// (TestConsensusSafetyUnderLeaderChurn) cannot produce this: a write that
// follows its scan in one indivisible step is as good as a scan after it.
func TestConsensusSafetyUnderPreemption(t *testing.T) {
	const n, seeds = 3, 1000
	violations := func(step func(*Proposer)) (bad int) {
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			mem := &interleaveMem{Mem: shmem.NewSimMem(n)}
			props := proposersOn(t, mem, n, func(i int) func() int {
				return func() int { return i } // everyone self-proclaims
			})
			mem.between = func(pid int) {
				if q := rng.Intn(2 * n); q < n && q != pid {
					for k := rng.Intn(4); k >= 0; k-- {
						step(props[q])
					}
				}
			}
			for s := 0; s < 500_000 && !allDecided(props); s++ {
				step(props[rng.Intn(n)])
			}
			if _, err := agreement(props); err != nil {
				if !strings.Contains(err.Error(), "violated") {
					t.Fatalf("seed %d: %v", seed, err)
				}
				bad++
			}
		}
		return bad
	}
	if bad := violations(func(p *Proposer) { p.Step(0) }); bad != 0 {
		t.Errorf("Step violated agreement on %d of %d seeds", bad, seeds)
	}
	bad := violations(staleStep)
	if bad == 0 {
		t.Errorf("staleStep kept agreement on all %d seeds: the schedules miss a stale phase-2 scan", seeds)
	}
	t.Logf("staleStep violated agreement on %d of %d seeds", bad, seeds)
}
