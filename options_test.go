package omegasm_test

import (
	"strings"
	"testing"
	"time"

	"omegasm"
)

func TestNewOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []omegasm.Option
		want string // substring of the expected error
	}{
		{"no options", nil, "at least 2 processes"},
		{"N=1", []omegasm.Option{omegasm.WithN(1)}, "at least 2 processes"},
		{"N=0", []omegasm.Option{omegasm.WithN(0)}, "at least 2 processes"},
		{"negative N", []omegasm.Option{omegasm.WithN(-3)}, "at least 2 processes"},
		{"unknown algorithm", []omegasm.Option{omegasm.WithN(3), omegasm.WithAlgorithm(omegasm.Algorithm(99))}, "unknown algorithm"},
		{"zero algorithm", []omegasm.Option{omegasm.WithN(3), omegasm.WithAlgorithm(0)}, "unknown algorithm"},
		{"bad step interval", []omegasm.Option{omegasm.WithN(3), omegasm.WithStepInterval(0)}, "step interval"},
		{"bad timer unit", []omegasm.Option{omegasm.WithN(3), omegasm.WithTimerUnit(-time.Second)}, "timer unit"},
		{"nil option", []omegasm.Option{omegasm.WithN(3), nil}, "nil Option"},
		{"nil substrate", []omegasm.Option{omegasm.WithN(3), omegasm.WithSubstrate(nil)}, "nil substrate"},
		{"conflicting substrates", []omegasm.Option{
			omegasm.WithN(3),
			omegasm.WithSAN(omegasm.SANConfig{}),
			omegasm.WithSubstrate(omegasm.Atomic()),
		}, "conflicting substrate"},
		{"double SAN", []omegasm.Option{
			omegasm.WithN(3),
			omegasm.WithSAN(omegasm.SANConfig{}),
			omegasm.WithSAN(omegasm.SANConfig{}),
		}, "conflicting substrate"},
		{"negative disks", []omegasm.Option{omegasm.WithN(3), omegasm.WithSAN(omegasm.SANConfig{Disks: -1})}, "disk"},
		{"bad spike probability", []omegasm.Option{omegasm.WithN(3), omegasm.WithSAN(omegasm.SANConfig{SpikeP: 1.5})}, "spike probability"},
		{"spike probability without magnitude", []omegasm.Option{omegasm.WithN(3), omegasm.WithSAN(omegasm.SANConfig{SpikeP: 0.1})}, "spike"},
		{"fleet option in New", []omegasm.Option{omegasm.WithN(3), omegasm.WithClusters(2)}, "only applies to NewFleet"},
		{"refresh interval in New", []omegasm.Option{omegasm.WithN(3), omegasm.WithRefreshInterval(time.Millisecond)}, "only applies to NewFleet"},
		{"override in New", []omegasm.Option{omegasm.WithN(3), omegasm.WithClusterOptions(0, omegasm.WithN(5))}, "only applies to NewFleet"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := omegasm.New(tc.opts...)
			if err == nil {
				t.Fatalf("New(%s) accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The minimal valid option list: WithN alone.
	c, err := omegasm.New(omegasm.WithN(2))
	if err != nil {
		t.Fatalf("WithN(2) alone rejected: %v", err)
	}
	if c.Substrate() != "atomic" || c.Algorithm() != omegasm.WriteEfficient {
		t.Errorf("defaults: substrate %q algorithm %v", c.Substrate(), c.Algorithm())
	}
}

// TestSANSubstrateElection runs every exposed algorithm variant over the
// SAN substrate (ideal zero-latency disks keep it fast) and crashes a
// minority disk mid-run: the quorum must mask it.
func TestSANSubstrateElection(t *testing.T) {
	if testing.Short() {
		t.Skip("live SAN election takes seconds")
	}
	for _, algo := range []omegasm.Algorithm{
		omegasm.WriteEfficient, omegasm.Bounded, omegasm.NWnR, omegasm.TimerFree,
	} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t,
				omegasm.WithN(3),
				omegasm.WithAlgorithm(algo),
				omegasm.WithSAN(omegasm.SANConfig{Disks: 3}),
				omegasm.WithStepInterval(500*time.Microsecond),
				omegasm.WithTimerUnit(10*time.Millisecond),
			)
			if c.Substrate() != "san" || c.DiskCount() != 3 {
				t.Fatalf("substrate %q with %d disks", c.Substrate(), c.DiskCount())
			}
			if _, ok := c.WaitForAgreement(30 * time.Second); !ok {
				t.Fatal("no agreement over the SAN")
			}
			if err := c.CrashDisk(0); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.WaitForAgreement(30 * time.Second); !ok {
				t.Fatal("agreement lost after a minority disk crash")
			}
		})
	}
}

func TestCrashDiskValidation(t *testing.T) {
	atomic := startCluster(t, omegasm.WithN(2))
	if atomic.DiskCount() != 0 {
		t.Errorf("atomic substrate has %d disks", atomic.DiskCount())
	}
	if err := atomic.CrashDisk(0); err == nil {
		t.Error("CrashDisk accepted on the atomic substrate")
	}
	san, err := omegasm.New(omegasm.WithN(2), omegasm.WithSAN(omegasm.SANConfig{Disks: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if err := san.CrashDisk(3); err == nil {
		t.Error("out-of-range disk crash accepted")
	}
	if err := san.CrashDisk(-1); err == nil {
		t.Error("negative disk crash accepted")
	}
	if err := san.CrashDisk(2); err != nil {
		t.Errorf("valid disk crash rejected: %v", err)
	}
}

// TestSANPacingDefaults checks that the substrate chooses the pacing when
// the caller does not: disk registers default to a much coarser step than
// atomic words. Observable via election still working with no interval
// options at all.
func TestSANPacingDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("SAN defaults pace in milliseconds")
	}
	c := startCluster(t, omegasm.WithN(2), omegasm.WithSAN(omegasm.SANConfig{Disks: 3}))
	if _, ok := c.WaitForAgreement(time.Minute); !ok {
		t.Fatal("no agreement with substrate-default pacing")
	}
}
