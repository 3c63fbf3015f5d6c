package omegasm_test

import (
	"reflect"
	"testing"

	"omegasm"
)

// leaseCampaignConfig builds the adversarial leased run the campaign
// sweeps: a steady write stream across the whole horizon, leases a few
// thousand ticks long, and a crash schedule aimed at the processes the
// oracle elects — so leaders die mid-lease and their grants must hand
// over without a stale or time-travelling read.
func leaseCampaignConfig(seed int64, crashes map[int]int64) omegasm.SimKVConfig {
	cfg := omegasm.SimKVConfig{
		N:       4,
		Seed:    seed,
		Horizon: 300_000,
		Lease:   2_000,
		Crashes: crashes,
	}
	for i := int64(0); i < 400; i++ {
		cfg.Writes = append(cfg.Writes, omegasm.SimWrite{
			At:  1_000 + i*600,
			Key: uint16(i % 8),
			Val: uint16(1 + i),
		})
	}
	return cfg
}

// holders returns the distinct holders of a run's grant history, in
// first-appearance order.
func holders(grants []omegasm.SimLeaseGrant) []int {
	seen := map[int]bool{}
	var out []int
	for _, g := range grants {
		if !seen[g.Holder] {
			seen[g.Holder] = true
			out = append(out, g.Holder)
		}
	}
	return out
}

// checkLeasedRun runs one leased config and asserts the campaign
// invariants: no lease violation, lease reads actually served, writes
// actually delivered. It returns the result for campaign-level checks.
func checkLeasedRun(t *testing.T, name string, cfg omegasm.SimKVConfig) *omegasm.SimKVResult {
	t.Helper()
	res, err := omegasm.SimKV(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, v := range res.LeaseViolations {
		t.Errorf("%s: lease violation: %s", name, v)
	}
	if res.LeaseReads == 0 {
		t.Errorf("%s: monitor never served a lease read", name)
	}
	if res.Delivered == 0 {
		t.Errorf("%s: no write delivered under authority-gated proposing", name)
	}
	if len(res.LeaseGrants) == 0 {
		t.Errorf("%s: no lease was ever granted", name)
	}
	return res
}

// TestSimLeaseCrashCampaign is the seeded adversarial campaign behind
// the lease design: leaders crash mid-lease under a sweep of scheduling
// seeds, and every run must keep the two read invariants (never back in
// time, never stale — see simLeaseMonitor) plus a fully disjoint grant
// history. The campaign also checks its own teeth: across the sweep the
// lease must actually change hands, otherwise the crash schedule never
// killed a holder and the runs prove nothing.
func TestSimLeaseCrashCampaign(t *testing.T) {
	handovers := 0
	for seed := int64(1); seed <= 8; seed++ {
		res := checkLeasedRun(t, "single-crash", leaseCampaignConfig(seed, map[int]int64{0: 120_000}))
		if len(holders(res.LeaseGrants)) > 1 {
			handovers++
		}
		// A second schedule: the first two elected processes die in
		// sequence, forcing two mid-lease handovers.
		res = checkLeasedRun(t, "double-crash", leaseCampaignConfig(seed, map[int]int64{0: 90_000, 1: 200_000}))
		if len(holders(res.LeaseGrants)) > 2 {
			handovers++
		}
	}
	if handovers == 0 {
		t.Error("campaign never observed a lease handover; the crash schedules exercise nothing")
	}
}

// TestSimLeaseReplayByteIdentical pins the campaign's reproducibility:
// the same leased config (including its crash schedule and seed) yields
// the same result, byte for byte — grant history, violation list,
// committed stream, everything. These are the regression scenarios the
// campaign found most eventful (most grants and handovers), frozen.
func TestSimLeaseReplayByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		crashes map[int]int64
	}{
		{"single-crash-seed3", 3, map[int]int64{0: 120_000}},
		{"double-crash-seed5", 5, map[int]int64{0: 90_000, 1: 200_000}},
	} {
		cfg1 := leaseCampaignConfig(tc.seed, tc.crashes)
		cfg2 := leaseCampaignConfig(tc.seed, tc.crashes)
		r1 := checkLeasedRun(t, tc.name, cfg1)
		r2, err := omegasm.SimKV(cfg2)
		if err != nil {
			t.Fatalf("%s: replay: %v", tc.name, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: replay diverged:\n run 1: %+v\n run 2: %+v", tc.name, r1, r2)
		}
	}
}

// TestSimDemotedHolderReleasesAuthority pins the live-vs-sim drift the
// shared replica driver removed: the simulator's copy of the driver used
// to extend a lease for as long as it was held, so a holder the oracle
// had moved past kept commit authority hostage until it crashed and its
// grant ran out (~11 500 ticks without a commit on this grid point). The
// shipped driver extends only while it is the agreed leader, so the
// stall is bounded by one lease and writes commit before the crash.
func TestSimDemotedHolderReleasesAuthority(t *testing.T) {
	var point omegasm.CampaignPoint
	for _, pt := range omegasm.DefaultCampaignGrid() {
		if pt.Name == "leased-crash-p0" {
			point = pt
		}
	}
	crashAt, ok := point.Config.Crashes[0]
	if !ok || point.Config.Lease == 0 {
		t.Fatal("grid point leased-crash-p0 no longer crashes p0 under a lease")
	}
	for seed := int64(300_000); seed <= 300_007; seed++ {
		cfg := point.Config
		cfg.Seed = seed
		cfg.Record = true
		res, err := omegasm.SimKV(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		early := 0
		for _, op := range res.History.Ops {
			if op.Return >= 0 && op.Return < crashAt {
				early++
			}
		}
		if early == 0 {
			t.Errorf("seed %d: no write committed before the crash at %d", seed, crashAt)
		}
		if limit := cfg.Lease + 256; res.CommitStallMax > limit {
			t.Errorf("seed %d: commit stall %d ticks exceeds one lease (%d)", seed, res.CommitStallMax, limit)
		}
	}
}
