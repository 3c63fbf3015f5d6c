package omegasm_test

import (
	"reflect"
	"testing"

	"omegasm"
	"omegasm/check"
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

// leasedCrashP0 returns the stock campaign grid's leased point that
// crashes p0.
func leasedCrashP0(t *testing.T) omegasm.CampaignPoint {
	t.Helper()
	for _, pt := range omegasm.DefaultCampaignGrid() {
		if _, crashes := pt.Config.Crashes[0]; pt.Name == "leased-crash-p0" && crashes && pt.Config.Lease > 0 {
			return pt
		}
	}
	t.Fatal("grid point leased-crash-p0 is gone, or no longer crashes p0 under a lease")
	return omegasm.CampaignPoint{}
}

// TestSimDemotedHolderReleasesAuthority pins the live-vs-sim drift the
// shared replica driver removed: the simulator's copy of the driver used
// to extend a lease for as long as it was held, so a holder the oracle
// had moved past kept commit authority hostage until it crashed and its
// grant ran out (~11 500 ticks without a commit on this grid point). The
// shipped driver extends only while it is the agreed leader, so the
// stall is bounded by one lease and writes commit before the crash.
func TestSimDemotedHolderReleasesAuthority(t *testing.T) {
	point := leasedCrashP0(t)
	crashAt := point.Config.Crashes[0]
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

// TestSimLeaseHidesInsideReagreement checks, on the exact clock, the rule
// the live default lease is picked by (defaultLeaseDur): a hand-over
// costs max(re-agreement, lease), so a grant shorter than the time the
// processes need to settle on the next leader is free and every tick
// beyond it is a tick of stall. The grid point leased-crash-p0 is swept
// over SimKVConfig.Lease under a write stream dense enough that the
// longest commit stall is a hand-over and not the workload's own gap. (Its
// costly hand-overs are the start-up ones — the first estimates name p0,
// the election moves on, and the demoted holder's grant has to run out;
// by the crash at 9000 p0 holds nothing.) The simulator runs eps 0, so
// the knee sits at the lease itself.
func TestSimLeaseHidesInsideReagreement(t *testing.T) {
	point := leasedCrashP0(t)
	run := func(seed, lease int64, mut omegasm.SimMutation) *omegasm.SimKVResult {
		t.Helper()
		cfg := point.Config
		cfg.Seed, cfg.Lease, cfg.Mutation, cfg.Record = seed, lease, mut, true
		cfg.Writes = nil
		for i := 0; i < 320; i++ {
			cfg.Writes = append(cfg.Writes, omegasm.SimWrite{At: int64(100 + 50*i), Key: uint16(1 + i%10), Val: uint16(100 + i)})
		}
		res, err := omegasm.SimKV(cfg)
		if err != nil {
			t.Fatalf("seed %d lease %d: %v", seed, lease, err)
		}
		return res
	}
	// The sweep starts at 32 ticks: a grant must outlive its holder's
	// activation gap (pacing draws up to 8 ticks; at 8 it lapses ~1400
	// times a run), and at 16 a successor tries to claim inside a valid
	// grant — what the seeded mutation needs to show — in two seeds of four.
	leases := []int64{32, 64, 128, 256, 512, 1024, 2048, point.Config.Lease}
	const (
		jitter = 16  // how far one activation's pacing moves a stall
		commit = 128 // acquisition to first commit: barrier slot, phases
	)
	for seed := int64(1); seed <= 4; seed++ {
		stall := make([]int64, len(leases))
		for i, lease := range leases {
			res := run(seed, lease, omegasm.MutNone)
			for _, v := range res.LeaseViolations {
				t.Errorf("seed %d lease %d: lease violation: %s", seed, lease, v)
			}
			if v := res.Verify(check.Options{}); !v.OK() {
				t.Errorf("seed %d lease %d: %v", seed, lease, v.Violations)
			}
			if res.Delivered != 320 {
				t.Errorf("seed %d lease %d: %d of 320 writes delivered", seed, lease, res.Delivered)
			}
			stall[i] = res.CommitStallMax
		}
		reagree := stall[0] // what a hand-over stalls when the lease is too short to matter
		knee := false
		for i, lease := range leases {
			lo, hi := max(reagree-jitter, lease+1), max(reagree+jitter, lease+commit)
			if stall[i] < lo || stall[i] > hi {
				t.Errorf("seed %d lease %d: CommitStallMax %d outside [%d, %d] = max(re-agreement %d, lease)", seed, lease, stall[i], lo, hi, reagree)
			}
			if i > 0 && leases[i-1] >= reagree {
				// Both leases are beyond the knee: tick for tick.
				knee = true
				if d, want := stall[i]-stall[i-1], lease-leases[i-1]; d < want-jitter || d > want+jitter {
					t.Errorf("seed %d: lease %d -> %d moved the stall by %d ticks, want %d", seed, leases[i-1], lease, d, want)
				}
			}
		}
		if !knee || reagree < 2*leases[0] {
			t.Errorf("seed %d: sweep %v does not straddle the re-agreement time %d", seed, leases, reagree)
		}
		t.Logf("seed %d: re-agreement %d ticks, stalls %v at leases %v", seed, reagree, stall, leases)

		// The checker keeps its teeth where the grant is shortest.
		res := run(seed, leases[0], omegasm.MutPrematureLeaseExtend)
		if len(res.LeaseViolations) == 0 && res.Verify(check.Options{}).OK() {
			t.Errorf("seed %d: MutPrematureLeaseExtend went unnoticed at lease %d", seed, leases[0])
		}
	}
}
