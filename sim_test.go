package omegasm

import (
	"reflect"
	"testing"
)

// simWorkload builds a small write set spanning the run.
func simWorkload(count int, from, spacing int64) []SimWrite {
	writes := make([]SimWrite, count)
	for i := range writes {
		writes[i] = SimWrite{
			At:  from + int64(i)*spacing,
			Key: uint16(i % 7),
			Val: uint16(100 + i),
		}
	}
	return writes
}

func TestSimKVValidation(t *testing.T) {
	if _, err := SimKV(SimKVConfig{N: 1}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := SimKV(SimKVConfig{N: 3, Slots: -1}); err == nil {
		t.Error("negative slots accepted")
	}
	if _, err := SimKV(SimKVConfig{N: 3, Crashes: map[int]int64{7: 10}}); err == nil {
		t.Error("out-of-range crash pid accepted")
	}
	if _, err := SimKV(SimKVConfig{
		N: 2, Crashes: map[int]int64{0: 1, 1: 2},
	}); err == nil {
		t.Error("crashing every process accepted")
	}
	if _, err := SimKV(SimKVConfig{
		N: 3, Writes: []SimWrite{{At: 1, Key: 0xFFFF, Val: 0xFFFF}},
	}); err == nil {
		t.Error("reserved key/value pair accepted")
	}
	if _, err := SimKV(SimKVConfig{N: 3, Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestSimKVValidationDeterministic: with several invalid crash entries
// the reported error must not depend on map iteration order. Validation
// used to range over the crash map directly, so which bad entry it named
// differed run to run; it now checks pids in sorted order and must always
// blame the lowest one.
func TestSimKVValidationDeterministic(t *testing.T) {
	cfg := SimKVConfig{
		N:       4,
		Crashes: map[int]int64{9: 10, 7: -5, 3: -1, 11: 20},
	}
	_, err := SimKV(cfg)
	if err == nil {
		t.Fatal("invalid crash schedule accepted")
	}
	want := err.Error()
	if want != "omegasm: crash time -1 for process 3 is negative" {
		t.Fatalf("validation blamed %q, not the lowest bad pid", want)
	}
	for i := 0; i < 50; i++ {
		if _, err := SimKV(cfg); err == nil || err.Error() != want {
			t.Fatalf("run %d: error changed: %v (want %q)", i, err, want)
		}
	}
}

// TestSimKVDeliversWorkload: a calm run (no crashes) commits every write
// and converges every replica's state.
func TestSimKVDeliversWorkload(t *testing.T) {
	writes := simWorkload(12, 2_000, 500)
	res, err := SimKV(SimKVConfig{
		N: 3, Seed: 11, Horizon: 300_000, Writes: writes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(writes) {
		t.Fatalf("Delivered = %d, want %d (end=%d, committed=%d)",
			res.Delivered, len(writes), res.End, len(res.Committed))
	}
	if len(res.Committed) < len(writes) {
		t.Fatalf("committed %d entries, want >= %d", len(res.Committed), len(writes))
	}
	// Last write per key wins in the final state.
	want := map[uint16]uint16{}
	for _, w := range writes {
		want[w.Key] = w.Val
	}
	if !reflect.DeepEqual(res.State, want) {
		t.Fatalf("State = %v, want %v", res.State, want)
	}
}

// TestSimKVDeterministicReplay is the acceptance criterion: same seed +
// same crash schedule => byte-identical committed log (and full result)
// across two simulated runs.
func TestSimKVDeterministicReplay(t *testing.T) {
	cfg := SimKVConfig{
		N:       4,
		Seed:    1729,
		Horizon: 400_000,
		Crashes: map[int]int64{1: 60_000, 2: 120_000},
		Writes:  simWorkload(16, 2_000, 4_000),
	}
	a, err := SimKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Committed, b.Committed) {
		t.Fatalf("same seed, different commit histories:\n%v\n%v", a.Committed, b.Committed)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if len(a.Committed) == 0 {
		t.Fatal("vacuous: nothing committed")
	}
}

// TestSimKVCheckpointedReplay is the recycling acceptance criterion: a
// stream several times the slot window, sealed by at least three
// checkpoints, replays byte-identically per seed — including with a
// crash schedule that kills processes while checkpoints are in flight.
func TestSimKVCheckpointedReplay(t *testing.T) {
	const slots = 24 // window 24, default cadence 6: a 150-write stream recycles many times
	base := SimKVConfig{
		N:       3,
		Seed:    99,
		Horizon: 2_000_000,
		Slots:   slots,
		Writes:  simWorkload(150, 2_000, 2_000),
	}
	for name, crashes := range map[string]map[int]int64{
		"calm": nil,
		// The crash lands mid-stream, while seals and acks are flowing:
		// whichever process is mid-checkpoint when it hits, the survivors
		// must finish the seal, gather the quorum, and keep recycling.
		"crash-during-checkpointing": {1: 120_000},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			cfg.Crashes = crashes
			a, err := SimKV(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := SimKV(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different results across checkpoints:\n%+v\n%+v", a, b)
			}
			if a.Checkpoints < 3 {
				t.Fatalf("only %d checkpoints; the scenario is not exercising recycling", a.Checkpoints)
			}
			if a.SlotsUsed <= slots {
				t.Fatalf("SlotsUsed = %d over a %d-slot window: nothing recycled", a.SlotsUsed, slots)
			}
			if a.Delivered != len(cfg.Writes) {
				t.Fatalf("delivered %d of %d across recycling", a.Delivered, len(cfg.Writes))
			}
			want := map[uint16]uint16{}
			for _, w := range cfg.Writes {
				want[w.Key] = w.Val
			}
			if !reflect.DeepEqual(a.State, want) {
				t.Fatalf("state diverged from last-write-wins: %v vs %v", a.State, want)
			}
		})
	}
}

// TestSimKVLeaderCrashFailover scripts the deterministic failover
// scenario: probe the stabilized leader with a dry run, then crash
// exactly that leader mid-workload and check the survivors finish the
// job — reproducibly.
func TestSimKVLeaderCrashFailover(t *testing.T) {
	base := SimKVConfig{N: 4, Seed: 7, Horizon: 600_000}
	probe, err := SimKV(base)
	if err != nil {
		t.Fatal(err)
	}
	leader := probe.Leaders[0]
	if leader < 0 {
		t.Fatal("probe run elected nobody")
	}
	for p, l := range probe.Leaders {
		if !probe.Crashed[p] && l != leader {
			t.Fatalf("probe run did not stabilize: leaders %v", probe.Leaders)
		}
	}

	cfg := base
	cfg.Crashes = map[int]int64{leader: 100_000}
	cfg.Writes = simWorkload(10, 2_000, 30_000) // spans the crash
	res, err := SimKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[leader] {
		t.Fatalf("leader %d did not crash", leader)
	}
	if res.Delivered != len(cfg.Writes) {
		t.Fatalf("Delivered = %d of %d across the failover (end=%d)",
			res.Delivered, len(cfg.Writes), res.End)
	}
	for p, l := range res.Leaders {
		if res.Crashed[p] {
			continue
		}
		if l == leader {
			t.Fatalf("process %d still names the crashed leader %d", p, l)
		}
	}
	// And the failover run replays identically.
	again, err := SimKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Committed, again.Committed) {
		t.Fatal("failover run is not reproducible")
	}
}

// simRequests builds a mixed open-loop request stream: every third
// request is a read, keys cycle a small space, arrivals are evenly
// spaced starting at from.
func simRequests(count int, from, spacing int64) []SimRequest {
	reqs := make([]SimRequest, count)
	for i := range reqs {
		reqs[i] = SimRequest{
			At:    from + int64(i)*spacing,
			Key:   uint16(i % 5),
			Val:   uint16(200 + i),
			Read:  i%3 == 2,
			Class: i % 2,
		}
	}
	return reqs
}

// TestSimKVOpenLoopRequests checks the open-loop workload path: every
// request completes before a generous horizon, completion times respect
// arrival times, and results echo the submitted order.
func TestSimKVOpenLoopRequests(t *testing.T) {
	reqs := simRequests(30, 2_000, 2_000)
	res, err := SimKV(SimKVConfig{
		N: 3, Seed: 5, Horizon: 500_000, Requests: reqs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != len(reqs) {
		t.Fatalf("got %d request results, want %d", len(res.Requests), len(reqs))
	}
	for i, rr := range res.Requests {
		if rr.Index != i {
			t.Fatalf("result %d has Index %d", i, rr.Index)
		}
		if rr.At != reqs[i].At || rr.Read != reqs[i].Read || rr.Class != reqs[i].Class {
			t.Fatalf("result %d = %+v does not echo request %+v", i, rr, reqs[i])
		}
		if rr.Done < 0 {
			t.Fatalf("request %d incomplete at horizon (end=%d)", i, res.End)
		}
		if rr.Done < rr.At {
			t.Fatalf("request %d completed at %d before arrival %d", i, rr.Done, rr.At)
		}
	}
	// The writes landed: last write per key wins in the final state.
	want := map[uint16]uint16{}
	for _, r := range reqs {
		if !r.Read {
			want[r.Key] = r.Val
		}
	}
	for k, v := range want {
		if res.State[k] != v {
			t.Fatalf("State[%d] = %d, want %d", k, res.State[k], v)
		}
	}
}

// TestSimKVOpenLoopReplay is the load harness's determinism criterion:
// the same seeded config with an open-loop request stream (crossing a
// leader crash) produces byte-identical per-request completion times.
func TestSimKVOpenLoopReplay(t *testing.T) {
	cfg := SimKVConfig{
		N:        3,
		Seed:     23,
		Horizon:  600_000,
		Crashes:  map[int]int64{0: 90_000},
		Requests: simRequests(40, 2_000, 3_000),
	}
	a, err := SimKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Requests, b.Requests) {
		t.Fatalf("same seed, different request timelines:\n%v\n%v", a.Requests, b.Requests)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different results")
	}
	done := 0
	for _, rr := range a.Requests {
		if rr.Done >= 0 {
			done++
		}
	}
	if done == 0 {
		t.Fatal("vacuous: no request completed")
	}
}
