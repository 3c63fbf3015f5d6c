package consensus

import (
	"testing"

	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// TestSteadyStateWriteZeroAllocs is the allocation regression gate for
// the write hot path: at steady state (every buffer warmed — staging,
// pending queue, proposer scratch, committed tail) a submitted write
// must ride to commit and application without a single heap allocation,
// across Set, the step burst that proposes and decides it, and the
// apply. The gate runs over the atomic substrate, the one the
// multi-core throughput benches measure.
func TestSteadyStateWriteZeroAllocs(t *testing.T) {
	const n = 3
	mem := shmem.NewAtomicMem(n, false)
	log := plainLog(t, mem, n, 2048)
	kvs := make([]*KV, n)
	for i := 0; i < n; i++ {
		r, err := NewReplica(log, i, func() int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if kvs[i], err = NewKV(r); err != nil {
			t.Fatal(err)
		}
	}
	lead := kvs[0]
	now := vclock.Time(0)
	val := uint16(0)
	commitOne := func() {
		val = (val + 1) & 0x7FFF
		if err := lead.Set(1, val); err != nil {
			t.Fatal(err)
		}
		want := lead.Applied() + 1
		for lead.Applied() < want {
			now += 1000
			for _, kv := range kvs {
				kv.StepBurst(now, 8)
			}
		}
	}
	// Warm every buffer: slice growth and proposer setup happen in the
	// first commits, never again.
	for i := 0; i < 64; i++ {
		commitOne()
	}
	if avg := testing.AllocsPerRun(100, commitOne); avg != 0 {
		t.Errorf("steady-state committed write allocates %.2f times/op, want 0", avg)
	}
}
