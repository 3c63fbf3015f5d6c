package omegasm

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"omegasm/check"
)

// campaignDenseWrites builds a write every step ticks in [from, to],
// with distinct keys and values.
func campaignDenseWrites(from, to, step int64) []SimWrite {
	var out []SimWrite
	i := 0
	for at := from; at <= to; at += step {
		out = append(out, SimWrite{At: at, Key: uint16(1 + i), Val: uint16(100 + i)})
		i++
	}
	return out
}

// campaignDropAckGrid is the grid tuned to catch MutDropQuorumAck: a
// dense write stream through a brownout (which stretches the
// submit-to-commit window) with two staggered leader-candidate crashes
// inside it. Empirically ~16/20 seeds lose an acknowledged write under
// the mutation; all seeds are clean without it.
func campaignDropAckGrid() []CampaignPoint {
	return []CampaignPoint{{
		Name: "dropack-brownout-crash",
		Config: SimKVConfig{
			N: 3, Horizon: 40_000,
			Writes:  campaignDenseWrites(5_800, 6_400, 10),
			Crashes: map[int]int64{0: 6_100, 1: 6_200},
			Faults:  &SimFaults{BrownoutFrom: 5_000, BrownoutTo: 8_000, BrownoutFactor: 6},
		},
	}}
}

// campaignLeaseGrid is the grid tuned to catch MutPrematureLeaseExtend:
// a leased run with a holder crash. Under the mutation every seed
// records overlapping grants (replicas acquire while the previous
// window is valid); without it all seeds are clean.
func campaignLeaseGrid() []CampaignPoint {
	return []CampaignPoint{{
		Name: "lease-holder-crash",
		Config: SimKVConfig{
			N: 3, Horizon: 40_000, Lease: 2_500,
			Writes:  campaignDenseWrites(3_000, 7_000, 2_000),
			Crashes: map[int]int64{0: 9_000},
		},
	}}
}

// TestCampaignDetectsDroppedQuorumAck is the checker's first
// non-vacuity proof: seeding the dropped-quorum-ack bug must make the
// campaign report durability violations.
func TestCampaignDetectsDroppedQuorumAck(t *testing.T) {
	rep, err := RunCampaign(CampaignConfig{
		Seeds: 10, Grid: campaignDropAckGrid(), Mutation: MutDropQuorumAck,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationRuns == 0 {
		t.Fatalf("mutated campaign reported no violations over %d runs — checker is vacuous", rep.Runs)
	}
	if w := rep.Worst[0]; !strings.Contains(w.FirstViolation, "lost") {
		t.Fatalf("worst violation %q does not report a lost write", w.FirstViolation)
	}
}

// TestCampaignDetectsPrematureLeaseExtend is the second non-vacuity
// proof: seeding the premature-lease-extend bug must make the campaign
// report lease-overlap violations.
func TestCampaignDetectsPrematureLeaseExtend(t *testing.T) {
	rep, err := RunCampaign(CampaignConfig{
		Seeds: 5, Grid: campaignLeaseGrid(), Mutation: MutPrematureLeaseExtend,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationRuns != rep.Runs {
		t.Fatalf("premature lease extend detected in %d/%d runs, want all", rep.ViolationRuns, rep.Runs)
	}
	if w := rep.Worst[0]; !strings.Contains(w.FirstViolation, "overlap") {
		t.Fatalf("worst violation %q does not report a lease overlap", w.FirstViolation)
	}
}

// TestCampaignCleanOnRealStack runs the mutation-tuned grids and a
// slice of the default grid without any mutation: the real stack must
// come back violation-free, so a red campaign always means a real bug
// (or a seeded one).
func TestCampaignCleanOnRealStack(t *testing.T) {
	grids := [][]CampaignPoint{campaignDropAckGrid(), campaignLeaseGrid(), DefaultCampaignGrid()[:4]}
	for _, grid := range grids {
		rep, err := RunCampaign(CampaignConfig{Seeds: 4, Grid: grid})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ViolationRuns > 0 {
			t.Errorf("grid %v: %d/%d runs violated on the unmutated stack; worst: %s",
				rep.Points, rep.ViolationRuns, rep.Runs, rep.Worst[0].FirstViolation)
		}
	}
}

// TestCampaignReportDeterministic runs the same campaign twice and
// demands identical reports — the sweep, the scoring and the ordering
// are all pure functions of the configuration.
func TestCampaignReportDeterministic(t *testing.T) {
	cfg := CampaignConfig{Seeds: 3, SeedBase: 7, Grid: DefaultCampaignGrid()[:3], Keep: 5}
	a, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("campaign report not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestMinimizeScenario shrinks a violating mutated run and checks the
// minimized configuration still reproduces the violation with strictly
// less workload.
func TestMinimizeScenario(t *testing.T) {
	base := campaignDropAckGrid()[0].Config
	base.Mutation = MutDropQuorumAck
	lost := func(_ *SimKVResult, v check.Verdict) bool {
		for _, msg := range v.Violations {
			if strings.Contains(msg, "lost") {
				return true
			}
		}
		return false
	}
	seed := int64(-1)
	for s := int64(0); s < 10; s++ {
		c := cloneSimConfig(base)
		c.Seed = s
		c.Record = true
		res, err := SimKV(c)
		if err != nil {
			t.Fatal(err)
		}
		if lost(res, res.Verify(check.Options{})) {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed in 0..9 reproduces the lost write")
	}
	cfg := cloneSimConfig(base)
	cfg.Seed = seed
	minimized, err := minimizeScenario(cfg, lost)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimized.Writes) >= len(cfg.Writes) {
		t.Errorf("minimizer kept all %d writes", len(minimized.Writes))
	}
	if minimized.Horizon > cfg.Horizon {
		t.Errorf("minimizer grew the horizon to %d", minimized.Horizon)
	}
	minimized.Record = true
	res, err := SimKV(minimized)
	if err != nil {
		t.Fatal(err)
	}
	if !lost(res, res.Verify(check.Options{})) {
		t.Fatal("minimized configuration no longer reproduces the lost write")
	}
}

// TestMinimizeScenarioRejectsNonRepro: a configuration that never
// satisfies the predicate is an error, not a silently-returned input.
func TestMinimizeScenarioRejectsNonRepro(t *testing.T) {
	cfg := SimKVConfig{N: 3, Horizon: 10_000}
	_, err := minimizeScenario(cfg, func(*SimKVResult, check.Verdict) bool { return false })
	if err == nil {
		t.Fatal("want an error for a non-reproducing seed")
	}
}

// TestScenarioBuildAndReplay pins a run into a Scenario, round-trips it
// through JSON (the fixture format), and replays it: the replay must be
// byte-identical and clean.
func TestScenarioBuildAndReplay(t *testing.T) {
	cfg := SimKVConfig{
		N: 3, Horizon: 30_000,
		Writes:  campaignDenseWrites(3_000, 7_000, 1_000),
		Crashes: map[int]int64{0: 9_000},
		Seed:    11,
	}
	sc, err := buildScenario("build-replay", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Expect.VerdictOK {
		t.Fatalf("scenario built from the real stack has a failing verdict")
	}
	if sc.Expect.HistoryHash == "" || sc.Expect.Delivered == 0 {
		t.Fatalf("scenario expectation incomplete: %+v", sc.Expect)
	}
	raw, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Replay(); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioReplayCatchesDrift: a scenario whose pinned hash no
// longer matches (here, corrupted by hand) must fail its replay — this
// is the property that makes the committed fixtures regression tests.
func TestScenarioReplayCatchesDrift(t *testing.T) {
	cfg := SimKVConfig{N: 3, Horizon: 20_000, Writes: campaignDenseWrites(3_000, 5_000, 1_000), Seed: 3}
	sc, err := buildScenario("drift", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc.Expect.HistoryHash = strings.Repeat("0", 64)
	if err := sc.Replay(); err == nil || !strings.Contains(err.Error(), "byte-identical") {
		t.Fatalf("corrupted hash not caught: %v", err)
	}
}
