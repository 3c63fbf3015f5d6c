package omegasm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"omegasm/check"
)

// CampaignPoint is one cell of a campaign's configuration grid: a named
// base configuration the campaign sweeps seeds over. The campaign forces
// Record on and overrides Seed per run; everything else is taken as is.
type CampaignPoint struct {
	// Name labels the point in reports and scenario fixtures.
	Name string `json:"name"`
	// Config is the base run configuration.
	Config SimKVConfig `json:"config"`
}

// CampaignConfig parameterizes one adversarial scenario campaign: a
// sweep of Seeds seeds over every grid point, each run scored by its
// checker verdict and anomaly metrics.
type CampaignConfig struct {
	// Seeds is how many seeds to sweep per grid point; default 50.
	Seeds int `json:"seeds"`
	// SeedBase offsets the swept seed range (seeds are SeedBase+i), so
	// nightly campaigns can cover fresh ground every night.
	SeedBase int64 `json:"seed_base"`
	// Grid is the configuration grid; empty picks DefaultCampaignGrid.
	Grid []CampaignPoint `json:"grid,omitempty"`
	// Keep bounds the report's worst-run list; default 10.
	Keep int `json:"keep"`
	// Mutation seeds a deliberate bug into every run (the non-vacuity
	// mode: a mutated campaign must report violations); MutNone sweeps
	// the real stack.
	Mutation SimMutation `json:"mutation,omitempty"`
}

// RunScore is one run's scored outcome. Higher scores are worse:
// violations dominate near-misses, which dominate the anomaly metrics
// (leader churn, commit stalls).
type RunScore struct {
	// Point names the grid point the run belongs to.
	Point string `json:"point"`
	// Seed is the run's seed.
	Seed int64 `json:"seed"`
	// Violations, NearMisses and Undecided count the verdict's entries.
	Violations int `json:"violations"`
	// NearMisses counts the verdict's near-misses.
	NearMisses int `json:"near_misses"`
	// Undecided counts linearization searches that hit the state cap.
	Undecided int `json:"undecided"`
	// LeaderChanges and CommitStallMax echo the run's anomaly metrics.
	LeaderChanges int `json:"leader_changes"`
	// CommitStallMax is the run's largest commit stall in ticks.
	CommitStallMax int64 `json:"commit_stall_max"`
	// Score is the run's total badness.
	Score int64 `json:"score"`
	// FirstViolation quotes the verdict's first violation, empty if none.
	FirstViolation string `json:"first_violation,omitempty"`
}

// CampaignReport is a campaign's scored summary, serialized as the
// nightly sweep's JSON artifact.
type CampaignReport struct {
	// Seeds and SeedBase echo the campaign's sweep parameters.
	Seeds int `json:"seeds"`
	// SeedBase echoes the campaign's seed offset.
	SeedBase int64 `json:"seed_base"`
	// Points lists the grid point names in sweep order.
	Points []string `json:"points"`
	// Runs counts executed runs; ViolationRuns and NearMissRuns count
	// the ones whose verdicts had violations / near-misses.
	Runs int `json:"runs"`
	// ViolationRuns counts runs with at least one violation.
	ViolationRuns int `json:"violation_runs"`
	// NearMissRuns counts runs with at least one near-miss.
	NearMissRuns int `json:"near_miss_runs"`
	// Worst lists the highest-scoring runs, worst first.
	Worst []RunScore `json:"worst"`
}

// scoreRun collapses one run's verdict and anomaly metrics into a
// single badness score.
func scoreRun(point string, seed int64, res *SimKVResult, v check.Verdict) RunScore {
	sc := RunScore{
		Point:          point,
		Seed:           seed,
		Violations:     len(v.Violations),
		NearMisses:     len(v.NearMisses),
		Undecided:      len(v.Undecided),
		LeaderChanges:  res.LeaderChanges,
		CommitStallMax: res.CommitStallMax,
	}
	sc.Score = int64(sc.Violations)*1_000_000 +
		int64(sc.NearMisses)*1_000 +
		int64(sc.LeaderChanges)*50 +
		sc.CommitStallMax/100
	if sc.Violations > 0 {
		sc.FirstViolation = v.Violations[0]
	}
	return sc
}

// RunCampaign sweeps the configured seeds over every grid point,
// verifying each recorded run, and returns the scored report. Runs
// execute sequentially (the simulator is single-threaded by design, and
// a sequential sweep keeps the report deterministic for a fixed
// configuration). An error in any run config aborts the campaign — grid
// points are supposed to be valid by construction.
func RunCampaign(cfg CampaignConfig) (*CampaignReport, error) {
	grid := cfg.Grid
	if len(grid) == 0 {
		grid = DefaultCampaignGrid()
	}
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 50
	}
	keep := cfg.Keep
	if keep <= 0 {
		keep = 10
	}
	report := &CampaignReport{Seeds: seeds, SeedBase: cfg.SeedBase}
	for _, pt := range grid {
		report.Points = append(report.Points, pt.Name)
		for s := 0; s < seeds; s++ {
			c := cloneSimConfig(pt.Config)
			c.Seed = cfg.SeedBase + int64(s)
			c.Record = true
			if cfg.Mutation != MutNone {
				c.Mutation = cfg.Mutation
			}
			res, err := SimKV(c)
			if err != nil {
				return nil, fmt.Errorf("omegasm: campaign point %q seed %d: %w", pt.Name, c.Seed, err)
			}
			v := res.Verify(check.Options{})
			sc := scoreRun(pt.Name, c.Seed, res, v)
			report.Runs++
			if sc.Violations > 0 {
				report.ViolationRuns++
			}
			if sc.NearMisses > 0 {
				report.NearMissRuns++
			}
			report.Worst = append(report.Worst, sc)
		}
	}
	// Keep the worst runs, worst first; ties break on (point, seed) so
	// the report is identical run over run.
	sort.SliceStable(report.Worst, func(i, j int) bool {
		a, b := report.Worst[i], report.Worst[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		return a.Seed < b.Seed
	})
	if len(report.Worst) > keep {
		report.Worst = report.Worst[:keep]
	}
	return report, nil
}

// cloneSimConfig deep-copies a run configuration so sweeps and the
// minimizer can mutate candidates without aliasing the original's
// slices and maps.
func cloneSimConfig(c SimKVConfig) SimKVConfig {
	out := c
	out.Writes = append([]SimWrite(nil), c.Writes...)
	out.Requests = append([]SimRequest(nil), c.Requests...)
	if c.Crashes != nil {
		m := make(map[int]int64, len(c.Crashes))
		for p, t := range c.Crashes {
			m[p] = t
		}
		out.Crashes = m
	}
	if c.Faults != nil {
		f := *c.Faults
		out.Faults = &f
	}
	return out
}

// minimizeScenario greedily shrinks a reproducing configuration: it
// drops writes, requests and crashes one at a time, halves the horizon
// and strips the fault models, keeping each change only while keep
// still accepts the (recorded, verified) rerun. The result is the local
// minimum the regression fixture commits — small enough to read, still
// reproducing the property of interest. keep is called with every
// candidate's result and verdict; minimizeScenario errors if the
// starting configuration itself does not reproduce.
func minimizeScenario(cfg SimKVConfig, keep func(*SimKVResult, check.Verdict) bool) (SimKVConfig, error) {
	try := func(c SimKVConfig) bool {
		c.Record = true
		res, err := SimKV(c)
		if err != nil {
			return false
		}
		return keep(res, res.Verify(check.Options{}))
	}
	cur := cloneSimConfig(cfg)
	cur.Record = true
	if !try(cur) {
		return cfg, fmt.Errorf("omegasm: minimization seed does not reproduce")
	}
	improved := true
	for improved {
		improved = false
		for i := len(cur.Writes) - 1; i >= 0; i-- {
			cand := cloneSimConfig(cur)
			cand.Writes = append(cand.Writes[:i], cand.Writes[i+1:]...)
			if try(cand) {
				cur = cand
				improved = true
			}
		}
		for i := len(cur.Requests) - 1; i >= 0; i-- {
			cand := cloneSimConfig(cur)
			cand.Requests = append(cand.Requests[:i], cand.Requests[i+1:]...)
			if try(cand) {
				cur = cand
				improved = true
			}
		}
		pids := make([]int, 0, len(cur.Crashes))
		for p := range cur.Crashes {
			pids = append(pids, p)
		}
		sort.Ints(pids)
		for _, p := range pids {
			cand := cloneSimConfig(cur)
			delete(cand.Crashes, p)
			if try(cand) {
				cur = cand
				improved = true
			}
		}
		if cur.Horizon > 2048 {
			cand := cloneSimConfig(cur)
			cand.Horizon = cur.Horizon / 2
			if try(cand) {
				cur = cand
				improved = true
			}
		}
		if cur.Faults != nil {
			cand := cloneSimConfig(cur)
			cand.Faults = nil
			if try(cand) {
				cur = cand
				improved = true
			}
		}
	}
	return cur, nil
}

// Scenario is one committed regression fixture: a minimized run
// configuration plus the exact outcome it must reproduce. Replaying a
// scenario reruns the configuration and compares everything, including
// the sha256 of the recorded history's canonical bytes — "replays
// byte-identically" as a single hash comparison.
type Scenario struct {
	// Name labels the scenario (the fixture's file stem).
	Name string `json:"name"`
	// Config is the minimized run configuration, Record included.
	Config SimKVConfig `json:"config"`
	// Expect is the outcome the replay must reproduce exactly.
	Expect ScenarioExpect `json:"expect"`
}

// ScenarioExpect pins a scenario's reproducible outcome.
type ScenarioExpect struct {
	// CommittedTotal, Delivered, LeaderChanges and End pin the run's
	// headline result fields.
	CommittedTotal int `json:"committed_total"`
	// Delivered pins the confirmed-write count.
	Delivered int `json:"delivered"`
	// LeaderChanges pins the watcher's churn count.
	LeaderChanges int `json:"leader_changes"`
	// End pins the run's end time in ticks.
	End int64 `json:"end"`
	// HistoryHash is the hex sha256 of the recorded history's canonical
	// bytes.
	HistoryHash string `json:"history_hash"`
	// VerdictOK records whether the checker verdict had no violations.
	VerdictOK bool `json:"verdict_ok"`
}

// historyHash renders the canonical-bytes hash a scenario pins.
func historyHash(h *check.History) string {
	sum := sha256.Sum256(h.Canonical())
	return hex.EncodeToString(sum[:])
}

// buildScenario runs cfg once (with recording forced on) and pins its
// outcome into a committable fixture.
func buildScenario(name string, cfg SimKVConfig) (*Scenario, error) {
	c := cloneSimConfig(cfg)
	c.Record = true
	res, err := SimKV(c)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:   name,
		Config: c,
		Expect: ScenarioExpect{
			CommittedTotal: res.CommittedTotal,
			Delivered:      res.Delivered,
			LeaderChanges:  res.LeaderChanges,
			End:            res.End,
			HistoryHash:    historyHash(res.History),
			VerdictOK:      res.Verify(check.Options{}).OK(),
		},
	}, nil
}

// Replay reruns the scenario's configuration and returns an error
// describing the first divergence from the pinned outcome, or nil when
// the replay is byte-identical (history hash included) and the verdict
// matches.
func (s *Scenario) Replay() error {
	c := cloneSimConfig(s.Config)
	c.Record = true
	res, err := SimKV(c)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if res.CommittedTotal != s.Expect.CommittedTotal {
		return fmt.Errorf("scenario %s: committed %d, want %d", s.Name, res.CommittedTotal, s.Expect.CommittedTotal)
	}
	if res.Delivered != s.Expect.Delivered {
		return fmt.Errorf("scenario %s: delivered %d, want %d", s.Name, res.Delivered, s.Expect.Delivered)
	}
	if res.LeaderChanges != s.Expect.LeaderChanges {
		return fmt.Errorf("scenario %s: leader changes %d, want %d", s.Name, res.LeaderChanges, s.Expect.LeaderChanges)
	}
	if res.End != s.Expect.End {
		return fmt.Errorf("scenario %s: end %d, want %d", s.Name, res.End, s.Expect.End)
	}
	if got := historyHash(res.History); got != s.Expect.HistoryHash {
		return fmt.Errorf("scenario %s: history hash %s, want %s — replay is not byte-identical", s.Name, got, s.Expect.HistoryHash)
	}
	if ok := res.Verify(check.Options{}).OK(); ok != s.Expect.VerdictOK {
		return fmt.Errorf("scenario %s: verdict ok=%t, want %t", s.Name, ok, s.Expect.VerdictOK)
	}
	return nil
}

// BuildWorstScenarios sweeps the campaign's grid like RunCampaign, then
// for every grid point takes the worst-scoring clean-verdict run (the
// most leader churn and commit stalling the point produced without any
// violation), greedily minimizes it while the churn, the delivered and
// committed workload and the clean verdict all persist, and pins it
// into a Scenario — the committable
// regression fixtures of a campaign. Points with no clean run are
// skipped. The campaign's Mutation is deliberately ignored: fixtures
// pin the real stack.
func BuildWorstScenarios(cfg CampaignConfig) ([]*Scenario, error) {
	grid := cfg.Grid
	if len(grid) == 0 {
		grid = DefaultCampaignGrid()
	}
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 50
	}
	var out []*Scenario
	for _, pt := range grid {
		bestSeed := int64(-1)
		var best RunScore
		for s := 0; s < seeds; s++ {
			c := cloneSimConfig(pt.Config)
			c.Seed = cfg.SeedBase + int64(s)
			c.Record = true
			res, err := SimKV(c)
			if err != nil {
				return nil, fmt.Errorf("omegasm: scenario point %q seed %d: %w", pt.Name, c.Seed, err)
			}
			v := res.Verify(check.Options{})
			if !v.OK() {
				continue
			}
			sc := scoreRun(pt.Name, c.Seed, res, v)
			if bestSeed < 0 || sc.Score > best.Score {
				best, bestSeed = sc, c.Seed
			}
		}
		if bestSeed < 0 {
			continue
		}
		c := cloneSimConfig(pt.Config)
		c.Seed = bestSeed
		c.Record = true
		orig, err := SimKV(cloneSimConfig(c))
		if err != nil {
			return nil, err
		}
		churn, delivered, committed := best.LeaderChanges, orig.Delivered, orig.CommittedTotal
		minimized, err := minimizeScenario(c, func(res *SimKVResult, v check.Verdict) bool {
			return v.OK() && res.LeaderChanges >= churn &&
				res.Delivered >= delivered && res.CommittedTotal >= committed
		})
		if err != nil {
			minimized = c
		}
		sc, err := buildScenario(pt.Name, minimized)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// DefaultCampaignGrid is the stock configuration grid of the scenario
// campaigns: a healthy baseline, leader-crash points with and without
// leases, a gray-failure election substrate, a cluster brownout, and an
// open-loop client mix. Every point uses 3 processes and a 60k-tick
// horizon, with writes spread over the run so crashes land mid-workload.
func DefaultCampaignGrid() []CampaignPoint {
	writes := func() []SimWrite {
		out := make([]SimWrite, 0, 10)
		for i := 0; i < 10; i++ {
			out = append(out, SimWrite{At: int64(2000 + 1000*i), Key: uint16(1 + i), Val: uint16(100 + i)})
		}
		return out
	}
	base := func() SimKVConfig {
		return SimKVConfig{N: 3, Horizon: 60_000, Writes: writes()}
	}
	crash := func(pids ...int) map[int]int64 {
		m := make(map[int]int64, len(pids))
		for i, p := range pids {
			m[p] = int64(9_000 + 4_000*i)
		}
		return m
	}
	leased := func(c SimKVConfig) SimKVConfig {
		c.Lease = 2_500
		return c
	}
	withFaults := func(c SimKVConfig, f SimFaults) SimKVConfig {
		c.Faults = &f
		return c
	}
	openload := func(c SimKVConfig) SimKVConfig {
		for i := 0; i < 12; i++ {
			c.Requests = append(c.Requests,
				SimRequest{At: int64(2_500 + 1_500*i), Key: uint16(1 + i%10), Val: uint16(200 + i), Client: 1 + i%3},
				SimRequest{At: int64(3_000 + 1_500*i), Key: uint16(1 + i%10), Read: true, Client: 1 + i%3},
			)
		}
		return c
	}
	grid := []CampaignPoint{
		{Name: "baseline", Config: base()},
		{Name: "crash-p0", Config: func() SimKVConfig { c := base(); c.Crashes = crash(0); return c }()},
		{Name: "crash-p0p1", Config: func() SimKVConfig { c := base(); c.Crashes = crash(0, 1); return c }()},
		{Name: "leased-crash-p0", Config: func() SimKVConfig { c := leased(base()); c.Crashes = crash(0); return c }()},
		{Name: "leased-crash-p1p2", Config: func() SimKVConfig { c := leased(base()); c.Crashes = crash(1, 2); return c }()},
		{Name: "gray-election", Config: func() SimKVConfig {
			c := withFaults(base(), SimFaults{
				StaleReadP: 0.2, StaleWindow: 16,
				PartialViewP: 0.05, PartialViewLen: 200,
				TimerSkewMax: 3,
			})
			c.Crashes = crash(1)
			return c
		}()},
		{Name: "brownout", Config: func() SimKVConfig {
			return withFaults(base(), SimFaults{BrownoutFrom: 4_000, BrownoutTo: 12_000, BrownoutFactor: 8})
		}()},
		{Name: "openload-crash-p2", Config: func() SimKVConfig {
			c := openload(base())
			c.Crashes = crash(2)
			return c
		}()},
		// A dense write stream through a brownout with two staggered
		// crashes inside it: the submit-to-commit window is stretched and
		// always occupied, so a leader crash catches writes in flight.
		// Clean on the real stack (the writer resubmits); the point that
		// catches MutDropQuorumAck in mutated campaigns.
		{Name: "brownout-crash-dense", Config: func() SimKVConfig {
			c := SimKVConfig{N: 3, Horizon: 40_000}
			for i := 0; i < 61; i++ {
				c.Writes = append(c.Writes, SimWrite{At: int64(5_800 + 10*i), Key: uint16(1 + i), Val: uint16(100 + i)})
			}
			c.Crashes = map[int]int64{0: 6_100, 1: 6_200}
			return withFaults(c, SimFaults{BrownoutFrom: 5_000, BrownoutTo: 8_000, BrownoutFactor: 6})
		}()},
	}
	return grid
}
