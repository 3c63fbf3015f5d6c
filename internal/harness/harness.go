// Package harness defines the reproduction's experiments: one per figure
// and theorem of the paper (see DESIGN.md's experiment index), each
// regenerating the corresponding artifact as tables of measurements plus
// pass/fail verdicts of the paper's claims.
//
// The paper is theoretical and has no measured evaluation section; its
// figures are the algorithm listings (Figures 2 and 5), the timer
// definition (Figure 1), the leader write sequence (Figure 3) and the
// lower-bound run construction (Figure 4). Each experiment here executes
// the figure's content: runs the algorithm over the adversarial run class
// of its theorem and measures the claimed behavior.
package harness

import (
	"fmt"
	"math/rand"
	"sort"

	"omegasm/internal/engine"
	"omegasm/internal/stats"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

// Algo selects an algorithm under test.
type Algo string

// The algorithms the harness can run.
const (
	AlgoWriteEfficient Algo = "algo1"     // paper Figure 2
	AlgoBounded        Algo = "algo2"     // paper Figure 5
	AlgoNWNR           Algo = "nwnr"      // paper Section 3.5 (nWnR)
	AlgoTimerFree      Algo = "timerfree" // paper Section 3.5 (no clocks)
	AlgoBaseline       Algo = "baseline"  // paper reference [13]
	AlgoStrawman       Algo = "strawman"  // paper Figure 4 counterexample
)

// Algos lists the Omega implementations (not the strawman) in report
// order.
var Algos = []Algo{AlgoWriteEfficient, AlgoBounded, AlgoNWNR, AlgoTimerFree, AlgoBaseline}

// Config is the global experiment configuration.
type Config struct {
	// Quick shrinks horizons and seed counts for use from unit tests.
	Quick bool
	// Seeds is the number of seeded repetitions per data point.
	Seeds int
}

func (c Config) seeds() int {
	if c.Seeds > 0 {
		return c.Seeds
	}
	if c.Quick {
		return 3
	}
	return 10
}

func (c Config) horizon(full vclock.Time) vclock.Time {
	if c.Quick {
		return full / 4
	}
	return full
}

// Outcome is what an experiment produces: regenerated tables plus claim
// verdicts.
type Outcome struct {
	Tables []*stats.Table
	Report *trace.Report
	Notes  []string
}

// Experiment is one entry of the reproduction's experiment index.
type Experiment struct {
	ID    string
	Title string
	Paper string // the paper artifact it regenerates
	Run   func(Config) (*Outcome, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in report order: the figure experiments
// (F-series) first, then the theorem/table experiments (T-series), then
// the ablations (A-series). Registration order is file-init order and is
// not meaningful; IDs lists the actual index, so documentation derived
// from it cannot drift as experiments are added.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	rank := func(id string) int {
		if id == "" {
			return 1 << 20
		}
		series := map[byte]int{'F': 0, 'T': 1, 'A': 2}[id[0]]
		return series<<8 + int(id[len(id)-1])
	}
	sort.Slice(out, func(i, j int) bool { return rank(out[i].ID) < rank(out[j].ID) })
	return out
}

// IDs returns every registered experiment id in report order. CLI help
// text is derived from this list so it tracks the index automatically.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
}

// defaultPreset fills an AWB-satisfying configuration: process 0 is the
// AWB1 process; everyone else is heavy-tailed asynchronous with
// adversarial-prefix AWB timers that settle at tau_1.
func defaultPreset(algo Algo, n int, seed int64, horizon vclock.Time) Preset {
	p := Preset{
		Algo:    algo,
		N:       n,
		Seed:    seed,
		Horizon: horizon,
		AWBProc: 0,
		Tau1:    horizon / 8,
		Delta:   8,
	}
	p.Pacing = advPacing(n, seed, horizon)
	p.Timers = advTimers(n, seed, horizon)
	return p
}

// advPacing builds the canonical asynchronous adversary: every process is
// heavy-tailed (occasional long stalls). Process 0 is also heavy-tailed —
// the run host's AWB1 clamp tames it after tau_1, which is exactly the
// assumption's shape: chaotic prefix, then timely. Each process draws
// from its own seeded source (engine.OwnRng) so a process's delay sequence
// does not depend on the interleaving.
func advPacing(n int, seed int64, horizon vclock.Time) []engine.Pacing {
	ps := make([]engine.Pacing, n)
	stall := horizon / 64
	if stall < 32 {
		stall = 32
	}
	for i := range ps {
		ps[i] = engine.OwnRng{
			Rng: newRng(seed, 7000+i),
			P:   engine.HeavyTail{Min: 1, Max: 8, StallP: 0.02, StallMax: stall},
		}
	}
	return ps
}

// advTimers builds per-process asymptotically well-behaved timers with an
// arbitrary prefix up to horizon/8 and bounded oscillation afterwards.
func advTimers(n int, seed int64, horizon vclock.Time) []vclock.Behavior {
	return advTimersAt(n, seed, horizon/8)
}

// advTimersAt is advTimers with an explicit settle point.
func advTimersAt(n int, seed int64, settle vclock.Time) []vclock.Behavior {
	ts := make([]vclock.Behavior, n)
	for i := range ts {
		ts[i] = &vclock.Adversarial{
			F:         vclock.Affine{A: 4, B: 1},
			Settle:    settle,
			PrefixMax: 64,
			OscAmp:    16,
			Rng:       newRng(seed, i),
		}
	}
	return ts
}

func newRng(seed int64, salt int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(salt)))
}
