package omegasm

import (
	"context"
	"testing"
	"time"
)

// TestReadLadderUnderLeaderCrash drives the ReadLease degrade ladder
// through leader crashes at different points of the lease lifecycle: a
// lease read issued during the post-crash anarchy must fall back to the
// quorum fence (not error, not block past re-election) and must never
// return a value older than a completed Put — then recover to serve the
// next Put linearizably. Four processes keep a read/write quorum alive
// across the single crash.
func TestReadLadderUnderLeaderCrash(t *testing.T) {
	cases := []struct {
		name string
		// crash picks when the agreed leader is crashed: before the
		// holder's grant becomes readable, after it, or never.
		crash string
	}{
		{name: "crash-before-lease-readable", crash: "before"},
		{name: "crash-after-lease-readable", crash: "after"},
		{name: "no-crash", crash: "never"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := startCluster(t, fastOpts(4)...)
			leader, ok := c.WaitForAgreement(10 * time.Second)
			if !ok {
				t.Fatal("no agreement")
			}
			kv, err := NewKV(c, kvStepInterval(50*time.Microsecond))
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			// The store's first ReadLease switches lease authority on: from
			// here on the lease lifecycle runs.
			if _, _, err := kv.Read(ctx, 7, ReadLease); err != nil {
				t.Fatal(err)
			}
			if err := kv.Put(ctx, 7, 41); err != nil {
				t.Fatal(err)
			}
			switch tc.crash {
			case "before":
				if err := c.Crash(leader); err != nil {
					t.Fatal(err)
				}
			case "after":
				deadline := time.Now().Add(10 * time.Second)
				for {
					if _, ok := kv.LeaseHolder(); ok {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("no lease holder became readable")
					}
					time.Sleep(time.Millisecond)
				}
				if err := c.Crash(leader); err != nil {
					t.Fatal(err)
				}
			}
			// The ladder's invariant: however the crash landed relative to
			// the lease lifecycle, a ReadLease issued right now — possibly
			// mid-anarchy — completes without error and observes the
			// completed Put, never anything older.
			v, found, err := kv.Read(ctx, 7, ReadLease)
			if err != nil {
				t.Fatalf("ReadLease during anarchy: %v", err)
			}
			if !found || v != 41 {
				t.Fatalf("ReadLease during anarchy = %d, %v; want 41 (stale or lost read)", v, found)
			}
			// Recovery: the surviving quorum accepts the next Put and both
			// linearizable modes observe it.
			if err := kv.Put(ctx, 7, 42); err != nil {
				t.Fatalf("Put after crash: %v", err)
			}
			for _, mode := range []ReadMode{ReadLease, ReadQuorum} {
				v, found, err := kv.Read(ctx, 7, mode)
				if err != nil || !found || v != 42 {
					t.Fatalf("Read(mode %d) after recovery = %d, %v, %v; want 42", mode, v, found, err)
				}
			}
		})
	}
}
