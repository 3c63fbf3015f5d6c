package consensus

import (
	"math/rand"
	"reflect"
	"testing"

	"omegasm/internal/shmem"
)

func newKVs(t *testing.T, n, slots int, omega func(i int) func() int) []*KV {
	t.Helper()
	mem := shmem.NewSimMem(n)
	log := plainLog(t, mem, n, slots)
	kvs := make([]*KV, n)
	for i := 0; i < n; i++ {
		r, err := NewReplica(log, i, omega(i))
		if err != nil {
			t.Fatal(err)
		}
		kv, err := NewKV(r)
		if err != nil {
			t.Fatal(err)
		}
		kvs[i] = kv
	}
	return kvs
}

func TestKVValidation(t *testing.T) {
	if _, err := NewKV(nil); err == nil {
		t.Error("nil replica accepted")
	}
}

func TestKVEncodeDecode(t *testing.T) {
	for _, tc := range []struct{ k, v uint16 }{{0, 0}, {1, 2}, {65535, 0}, {42, 65535}} {
		k, v := DecodeSet(EncodeSet(tc.k, tc.v))
		if k != tc.k || v != tc.v {
			t.Fatalf("roundtrip (%d,%d) -> (%d,%d)", tc.k, tc.v, k, v)
		}
	}
}

func TestKVRejectsReservedPair(t *testing.T) {
	kvs := newKVs(t, 2, 4, func(i int) func() int { return func() int { return 0 } })
	if err := kvs[0].Set(0xFFFF, 0xFFFF); err == nil {
		t.Error("reserved pair accepted")
	}
	if err := kvs[0].Set(0xFFFF, 0); err != nil {
		t.Errorf("legal pair rejected: %v", err)
	}
}

func TestKVReplication(t *testing.T) {
	kvs := newKVs(t, 3, 16, func(i int) func() int { return func() int { return 0 } })
	if err := kvs[0].Set(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := kvs[0].Set(2, 20); err != nil {
		t.Fatal(err)
	}
	if err := kvs[0].Set(1, 11); err != nil { // overwrite
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 100_000; s++ {
		kvs[rng.Intn(3)].Step(0)
		if kvs[0].Applied() >= 3 && kvs[1].Applied() >= 3 && kvs[2].Applied() >= 3 {
			break
		}
	}
	want := map[uint16]uint16{1: 11, 2: 20}
	for i, kv := range kvs {
		if got := kv.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d state %v, want %v", i, got, want)
		}
	}
	if v, ok := kvs[2].Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = (%d,%v)", v, ok)
	}
	if _, ok := kvs[2].Get(99); ok {
		t.Fatal("Get of missing key reported present")
	}
}

// TestKVConvergenceUnderChurn: concurrent writers with self-proclaiming
// oracles; all replicas' applied states must stay convergent (same
// committed prefix => same state).
func TestKVConvergenceUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		kvs := newKVs(t, 3, 32, func(i int) func() int { return func() int { return i } })
		for i, kv := range kvs {
			for k := 0; k < 3; k++ {
				if err := kv.Set(uint16(i*10+k), uint16(seed)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s < 150_000; s++ {
			kvs[rng.Intn(3)].Step(0)
		}
		// Truncate to the shortest applied prefix and compare by
		// replaying: simpler — replicas with equal Applied must have
		// equal snapshots.
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if kvs[i].Applied() == kvs[j].Applied() {
					if !reflect.DeepEqual(kvs[i].Snapshot(), kvs[j].Snapshot()) {
						t.Fatalf("seed %d: replicas %d and %d diverged at same applied count",
							seed, i, j)
					}
				}
			}
		}
	}
}
