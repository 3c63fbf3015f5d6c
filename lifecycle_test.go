package omegasm

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines fails the test unless the goroutine count is back to
// before within a second: whatever was started since has been joined.
// Callers are not parallel — they count goroutines.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines a second after the stop, %d before the start:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fastAtomic(n int) []Option {
	return []Option{WithN(n), WithStepInterval(100 * time.Microsecond), WithTimerUnit(time.Millisecond)}
}

// TestAtomicStoreCloseJoinsItsScheduler: on atomic registers a store is
// one scheduler goroutine; Close joins it, served writes or not.
func TestAtomicStoreCloseJoinsItsScheduler(t *testing.T) {
	c, err := New(fastAtomic(3)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	before := runtime.NumGoroutine()
	kv, err := NewKV(c)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := kv.Put(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	kv.Close()
	waitGoroutines(t, before)
}

// TestShardedKVCloseJoinsEverything: every shard's scheduler, every shard
// cluster's processes and the fleet's view refresher are gone after Close.
func TestShardedKVCloseJoinsEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := NewShardedKV(append(fastAtomic(3), WithShards(3))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.MultiPut(ctx, Entry{Key: 1, Val: 1}, Entry{Key: 2, Val: 2}, Entry{Key: 3, Val: 3}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	waitGoroutines(t, before)
}

// TestFleetStopJoinsEverything: Stop joins the view refresher and every
// member cluster's processes.
func TestFleetStopJoinsEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	f, err := NewFleet(append(fastAtomic(3), WithClusters(4))...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitForAgreement(30 * time.Second); !ok {
		t.Fatal("fleet did not agree")
	}
	f.Stop()
	waitGoroutines(t, before)
}
