package omegasm

import (
	"strings"
	"testing"
	"time"
)

func TestNewOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string // substring of the expected error
	}{
		{"no options", nil, "at least 2 processes"},
		{"N=1", []Option{WithN(1)}, "at least 2 processes"},
		{"N=0", []Option{WithN(0)}, "at least 2 processes"},
		{"negative N", []Option{WithN(-3)}, "at least 2 processes"},
		{"unknown algorithm", []Option{WithN(3), WithAlgorithm(Algorithm(99))}, "unknown algorithm"},
		{"zero algorithm", []Option{WithN(3), WithAlgorithm(0)}, "unknown algorithm"},
		{"bad step interval", []Option{WithN(3), WithStepInterval(0)}, "step interval"},
		{"bad timer unit", []Option{WithN(3), WithTimerUnit(-time.Second)}, "timer unit"},
		{"nil option", []Option{WithN(3), nil}, "nil Option"},
		{"double SAN", []Option{
			WithN(3),
			WithSAN(SANConfig{}),
			WithSAN(SANConfig{}),
		}, "conflicting substrate"},
		{"negative disks", []Option{WithN(3), WithSAN(SANConfig{Disks: -1})}, "disk"},
		{"bad spike probability", []Option{WithN(3), WithSAN(SANConfig{SpikeP: 1.5})}, "spike probability"},
		{"spike probability without magnitude", []Option{WithN(3), WithSAN(SANConfig{SpikeP: 0.1})}, "spike"},
		{"fleet option in New", []Option{WithN(3), WithClusters(2)}, "only applies to NewFleet"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts...)
			if err == nil {
				t.Fatalf("New(%s) accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The minimal valid option list: WithN alone.
	c, err := New(WithN(2))
	if err != nil {
		t.Fatalf("WithN(2) alone rejected: %v", err)
	}
	if c.set.substrate != (atomicSubstrate{}) || c.set.algorithm != WriteEfficient {
		t.Errorf("defaults: substrate %v algorithm %v", c.set.substrate, c.set.algorithm)
	}
}

// TestSANSubstrateElection runs every exposed algorithm variant over the
// SAN substrate (ideal zero-latency disks keep it fast) and crashes a
// minority disk mid-run: the quorum must mask it.
func TestSANSubstrateElection(t *testing.T) {
	if testing.Short() {
		t.Skip("live SAN election takes seconds")
	}
	for _, algo := range []Algorithm{
		WriteEfficient, Bounded, NWnR, TimerFree,
	} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t,
				WithN(3),
				WithAlgorithm(algo),
				WithSAN(SANConfig{Disks: 3}),
				WithStepInterval(500*time.Microsecond),
				WithTimerUnit(10*time.Millisecond),
			)
			if c.DiskCount() != 3 {
				t.Fatalf("SAN with %d disks", c.DiskCount())
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
	atomic := startCluster(t, WithN(2))
	if atomic.DiskCount() != 0 {
		t.Errorf("atomic substrate has %d disks", atomic.DiskCount())
	}
	if err := atomic.CrashDisk(0); err == nil {
		t.Error("CrashDisk accepted on the atomic substrate")
	}
	san, err := New(WithN(2), WithSAN(SANConfig{Disks: 3}))
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
	c := startCluster(t, WithN(2), WithSAN(SANConfig{Disks: 3}))
	if _, ok := c.WaitForAgreement(time.Minute); !ok {
		t.Fatal("no agreement with substrate-default pacing")
	}
}
