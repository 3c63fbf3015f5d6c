package omegasm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"omegasm"
	"omegasm/load"
)

// TestOpenLoopSimIsPinned pins the simulator's open-loop client: a
// Requests-only sharded run and a load.RunSim report, each as the sha256
// of its rendered outcome. Any change to how a simulated request is
// activated, submitted, confirmed or answered moves a digest; a change
// that leaves open-loop runs alone (scheduled writes, the saturation
// window) must leave both where they are.
func TestOpenLoopSimIsPinned(t *testing.T) {
	reqs := make([]omegasm.SimRequest, 40)
	for i := range reqs {
		reqs[i] = omegasm.SimRequest{
			At:     int64(1_500 + 1_700*i),
			Key:    uint16(i * 29 % 83),
			Val:    uint16(500 + i),
			Read:   i%3 == 2,
			Class:  i % 2,
			Client: 1 + i%4,
		}
	}
	res, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
		Shards: 4, N: 3, Seed: 17, Horizon: 300_000, Requests: reqs, Record: true,
		Crashes: []omegasm.SimShardCrash{{Shard: 1, Proc: 0, At: 20_000}}, // shard 1's leader
	})
	if err != nil {
		t.Fatal(err)
	}
	// The digest covers what the schedule decides: every request's
	// completion, each shard's committed stream, state, fates, leader
	// changes and recorded history (read answers included), and the end
	// time. Delivered is a count over the client's tracked writes, not an
	// outcome of the schedule, so it is left out.
	h := sha256.New()
	res.Delivered = 0
	for s := range res.Shards {
		h.Write(res.Shards[s].History.Canonical())
		res.Shards[s].History, res.Shards[s].Delivered = nil, 0
	}
	fmt.Fprintf(h, "%+v", *res)
	if got, want := hex.EncodeToString(h.Sum(nil)), "3df9249a73fa08c55e7e06d8a93bf8cb4272b2109c5a41bae6a4503e98e83e96"; got != want {
		t.Errorf("sharded open-loop run digest %s, want %s", got, want)
	}

	spec := load.Spec{
		Name: "pin", Clients: 6, Duration: 200 * time.Millisecond, Seed: 9,
		Rate: 800, Process: load.Poisson, Keys: 128, ReadFraction: 0.4,
		Classes: []load.Class{
			{Name: "interactive", Weight: 0.7, SLO: 20 * time.Millisecond},
			{Name: "batch", Weight: 0.3, SLO: 200 * time.Millisecond},
		},
	}
	rep, err := load.RunSim(&spec, load.SimOptions{
		Shards:  2,
		Crashes: []omegasm.SimShardCrash{{Shard: 0, Proc: 1, At: 60_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", rep)))
	if got, want := hex.EncodeToString(sum[:]), "2aa5b3855f5acabc616e7b899e210a14aa386ba36b6751626c1be9f257f296d8"; got != want {
		t.Errorf("load.RunSim report digest %s, want %s", got, want)
	}
}
