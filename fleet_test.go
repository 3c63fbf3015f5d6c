package omegasm

import (
	"sync"
	"testing"
	"time"
)

func startFleet(t *testing.T, opts ...Option) *Fleet {
	t.Helper()
	f, err := NewFleet(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// fleetOpts is clusters-many fast-paced members of n processes each.
func fleetOpts(clusters, n int) []Option {
	return append(fastOpts(n), WithClusters(clusters))
}

func TestFleetValidation(t *testing.T) {
	if _, err := NewFleet(WithClusters(0), WithN(3)); err == nil {
		t.Error("0 clusters accepted")
	}
	if _, err := NewFleet(WithClusters(2)); err == nil {
		t.Error("fleet without WithN accepted")
	}
	if _, err := NewFleet(WithClusters(2), WithN(3), WithAlgorithm(Algorithm(99))); err == nil {
		t.Error("invalid member option accepted")
	}
}

// TestFleetClusterOutOfRange: Leader with an index outside the fleet
// answers "no agreement" instead of indexing past the members.
func TestFleetClusterOutOfRange(t *testing.T) {
	f, err := NewFleet(fleetOpts(2, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	for _, i := range []int{-1, 2, 1 << 20} {
		if _, ok := f.Leader(i); ok {
			t.Errorf("Leader(%d) reported agreement", i)
		}
	}
}

func TestFleetStopBeforeStart(t *testing.T) {
	f, err := NewFleet(fleetOpts(2, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	f.Stop() // never started: must not hang or panic
	f.Stop() // and stays idempotent
	if err := f.Start(); err == nil {
		t.Error("Start accepted after Stop")
	}
}

func TestFleetElectsEverywhere(t *testing.T) {
	const clusters = 4
	f := startFleet(t, fleetOpts(clusters, 3)...)
	if len(f.clusters) != clusters {
		t.Fatalf("%d clusters", len(f.clusters))
	}
	if _, ok := f.WaitForAgreement(20 * time.Second); !ok {
		t.Fatal("fleet did not fully agree")
	}
	// Each cluster's cached view eventually reports a valid agreed leader.
	// (The exact identity may still churn right after first agreement —
	// Omega is only eventually stable — so only validity is asserted.)
	n := f.clusters[0].N()
	for i := 0; i < clusters; i++ {
		deadline := time.Now().Add(20 * time.Second)
		for {
			if l, ok := f.Leader(i); ok && l >= 0 && l < n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cluster %d: cached view never settled on a valid leader", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, ok := f.Leader(clusters); ok {
		t.Error("Leader() out of range reported agreement")
	}
}

func TestFleetCrashReElection(t *testing.T) {
	f := startFleet(t, fleetOpts(2, 3)...)
	leaders, ok := f.WaitForAgreement(20 * time.Second)
	if !ok {
		t.Fatal("no initial agreement")
	}
	if err := f.crash(0, leaders[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.crash(99, 0); err == nil {
		t.Error("Crash on missing cluster accepted")
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if l, ok := f.Leader(0); ok && l != leaders[0] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster 0 never re-elected past the crashed leader")
		}
		time.Sleep(time.Millisecond)
	}
	// The untouched cluster is unaffected by cluster 0's crash: it still
	// serves some valid leader (Omega permits churn before stabilization,
	// so only validity — not the exact identity — is guaranteed here).
	deadline = time.Now().Add(20 * time.Second)
	for {
		if l, ok := f.Leader(1); ok && l >= 0 && l < 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster 1 lost agreement after cluster 0's crash")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetConcurrentQueries hammers the cached fast path from many
// goroutines while the fleet runs; under -race this proves Leader queries
// are safe at arbitrary rates.
func TestFleetConcurrentQueries(t *testing.T) {
	const clusters = 3
	f := startFleet(t, fleetOpts(clusters, 3)...)
	if _, ok := f.WaitForAgreement(20 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				if l, ok := f.Leader((g + i) % clusters); ok && l < 0 {
					t.Errorf("agreed view with negative leader %d", l)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFleetStartStopIdempotent(t *testing.T) {
	f, err := NewFleet(fleetOpts(2, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err == nil {
		t.Error("second Start accepted")
	}
	f.Stop()
	f.Stop() // idempotent
}
