package lease

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omegasm/internal/vclock"
)

func TestAcquireRefusedWhileValidAndWithinEps(t *testing.T) {
	var r Register
	const dur, eps = 100, 10
	if e, ok := r.Acquire(0, 5, dur, eps); !ok || e != 1 {
		t.Fatalf("first Acquire = (%d, %t), want (1, true)", e, ok)
	}
	// Expiry is 105; a rival is refused while the grant is valid and for
	// eps past its expiry, and admitted strictly after that.
	for _, now := range []vclock.Time{6, 104, 105, 110, 115} {
		if _, ok := r.Acquire(1, now, dur, eps); ok {
			t.Fatalf("rival acquired at t=%d with the grant (possibly) valid until %d", now, 105+eps)
		}
	}
	if _, held := r.Held(0, 104); !held {
		t.Error("holder lost its grant to refused acquisitions")
	}
	if e, ok := r.Acquire(1, 116, dur, eps); !ok || e != 2 {
		t.Fatalf("Acquire past expiry+eps = (%d, %t), want (2, true)", e, ok)
	}
	if _, held := r.Held(0, 117); held {
		t.Error("dispossessed holder still reads as holding")
	}
	// The holder itself re-acquires through the same guard.
	if _, ok := r.Acquire(1, 120, dur, eps); ok {
		t.Error("holder re-acquired its own still-valid grant")
	}
	// Out-of-range holders never acquire.
	for _, me := range []int{-1, maxHolders} {
		if _, ok := (&Register{}).Acquire(me, 1, dur, 0); ok {
			t.Errorf("holder id %d acquired", me)
		}
	}
}

func TestExtend(t *testing.T) {
	var r Register
	r.Acquire(0, 10, 100, 0) // valid on [10, 110)
	if !r.Extend(0, 50, 100) {
		t.Fatal("holder could not extend a valid grant")
	}
	if g, _ := r.Peek(); g.Expiry != 150 {
		t.Fatalf("expiry after extend = %d, want 150", g.Expiry)
	}
	// Extending never shortens.
	if !r.Extend(0, 20, 100) {
		t.Fatal("an earlier-clock extend of a valid grant failed")
	}
	if g, _ := r.Peek(); g.Expiry != 150 {
		t.Fatalf("extend shortened the grant to %d", g.Expiry)
	}
	if r.Extend(1, 60, 100) {
		t.Error("a non-holder extended")
	}
	// Lapsed: only Acquire may revalidate.
	if r.Extend(0, 150, 100) {
		t.Error("Extend revalidated a lapsed grant")
	}
	if g, _ := r.Peek(); g.Expiry != 150 {
		t.Errorf("failed extend moved the expiry to %d", g.Expiry)
	}
}

// TestExtendReportsDispossession plays out the race Extend's post-CAS
// re-check of A closes: a rival's claim lands between the holder's
// validity check and its CAS on B (the holder stalled there for longer
// than eps — the case the bounded-delay assumption excludes for reads but
// that the register must still report). Extend's two halves are driven
// by hand to fix the interleaving.
func TestExtendReportsDispossession(t *testing.T) {
	var r Register
	r.Acquire(0, 10, 100, 0) // holder 0, valid until 110
	a, valid := r.holds(0, 105)
	if !valid {
		t.Fatal("holder failed its own validity check inside the grant")
	}
	// The holder stalls; the grant runs out; a rival claims.
	e, ok := r.Acquire(1, 111, 100, 0)
	if !ok {
		t.Fatal("rival could not acquire the expired grant")
	}
	if r.push(a, 105+100) {
		t.Fatal("Extend reported success although a rival claimed between its check and its CAS")
	}
	// The late push must not have disturbed the rival's grant: holder 1
	// holds epoch e until its own expiry, and holder 0 holds nothing.
	if got, held := r.Held(1, 150); !held || got != e {
		t.Errorf("rival's Held = (%d, %t), want (%d, true)", got, held, e)
	}
	if _, held := r.Held(0, 150); held {
		t.Error("dispossessed holder still reads as holding")
	}
	if g, _ := r.Peek(); g.Expiry != 211 {
		t.Errorf("rival's expiry = %d, want its own 211", g.Expiry)
	}
	// A whole Extend by the dispossessed holder fails at the check.
	if r.Extend(0, 120, 100) {
		t.Error("dispossessed holder extended")
	}
}

func TestReadableNeedsTheBarrierOfTheCurrentEpoch(t *testing.T) {
	var r Register
	e1, _ := r.Acquire(0, 10, 100, 0)
	if _, _, ok := r.ReadableHolder(20); ok {
		t.Fatal("a fresh grant served reads before its barrier")
	}
	r.MarkReadable(e1, 0)
	if h, e, ok := r.ReadableHolder(20); !ok || h != 0 || e != e1 {
		t.Fatalf("ReadableHolder = (%d, %d, %t), want (0, %d, true)", h, e, ok, e1)
	}
	if _, _, ok := r.ReadableHolder(110); ok {
		t.Error("an expired grant still served reads")
	}
	// A new epoch is unreadable until ITS barrier completes, and a stale
	// mark (the old epoch's, or the old holder's) never makes it readable.
	e2, ok := r.Acquire(1, 111, 100, 0)
	if !ok {
		t.Fatal("successor could not acquire")
	}
	r.MarkReadable(e1, 0)
	r.MarkReadable(e1, 1)
	r.MarkReadable(e2, 0)
	if _, _, ok := r.ReadableHolder(120); ok {
		t.Fatal("a stale MarkReadable made the newer grant readable")
	}
	if _, readable := r.Peek(); readable {
		t.Error("Peek reports the newer grant readable")
	}
	r.MarkReadable(e2, 1)
	if h, e, ok := r.ReadableHolder(120); !ok || h != 1 || e != e2 {
		t.Fatalf("ReadableHolder = (%d, %d, %t), want (1, %d, true)", h, e, ok, e2)
	}
}

func TestHistoryRecordsDisjointGrants(t *testing.T) {
	var r Register
	r.EnableHistory()
	now := vclock.Time(1)
	for i := 0; i < 20; i++ {
		holder := i % 3
		if _, ok := r.Acquire(holder, now, 50, 2); !ok {
			t.Fatalf("grant %d refused at t=%d", i, now)
		}
		now += 10
		r.Extend(holder, now, 50) // pushes the expiry the successor must observe
		if _, ok := r.Acquire((holder+1)%3, now, 50, 2); ok {
			t.Fatalf("grant %d overlapped by a rival at t=%d", i, now)
		}
		now += 50 + 2 + 1 // just past the extended expiry plus eps
	}
	hist := r.History()
	if len(hist) != 20 {
		t.Fatalf("history has %d grants, want 20", len(hist))
	}
	for i, g := range hist {
		if g.Epoch != uint64(i+1) {
			t.Errorf("grant %d has epoch %d", i, g.Epoch)
		}
		if g.AcquiredAt <= g.PrevExpiry {
			t.Errorf("grant %d acquired at %d, not after the previous expiry %d", i, g.AcquiredAt, g.PrevExpiry)
		}
		if i > 0 && g.PrevExpiry < hist[i-1].Expiry {
			t.Errorf("grant %d observed expiry %d, before its predecessor's granted %d", i, g.PrevExpiry, hist[i-1].Expiry)
		}
	}
	// The returned history is a copy.
	hist[0].Holder = 99
	if r.History()[0].Holder == 99 {
		t.Error("History aliases the register's record")
	}
}

// TestConcurrentClaimantsNeverOverlap hammers one register from several
// goroutines that acquire, extend for a few lease lengths and then let
// their grant lapse, all against one shared clock, while a sampler
// asserts the lease's whole point: at any sampled instant at most one
// process reads as Held. The property rests on the bounded-delay
// assumption (no participant takes longer than eps from its clock read to
// its effect), which a loaded host can break for the test's goroutines
// too — so every participant audits its own delay: the sampler discards a
// pass that took too long, and an overlap only fails the test when no
// claimant's operation overran eps. Run under -race.
func TestConcurrentClaimantsNeverOverlap(t *testing.T) {
	const procs = 4
	const dur = int64(2 * time.Millisecond)
	const eps = dur / 4
	var r Register
	r.EnableHistory()
	start := time.Now()
	clock := func() vclock.Time { return vclock.Time(time.Since(start)) + 1 }
	var stop atomic.Bool
	var acquired, overran atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			var since vclock.Time // this claimant's last acquisition
			for !stop.Load() {
				now := clock()
				if _, held := r.Held(me, now); held {
					if now-since < 3*dur {
						r.Extend(me, now, dur)
					}
				} else if _, ok := r.Acquire(me, now, dur, eps); ok {
					since = now
					acquired.Add(1)
				}
				if clock()-now > eps {
					overran.Add(1)
				}
				runtime.Gosched()
			}
		}(p)
	}
	length := 200 * time.Millisecond
	if testing.Short() {
		length = 60 * time.Millisecond
	}
	samples, overlaps := 0, 0
	for deadline := time.Now().Add(length); time.Now().Before(deadline); {
		now := clock()
		holders := 0
		for p := 0; p < procs; p++ {
			if _, held := r.Held(p, now); held {
				holders++
			}
		}
		if clock()-now > eps {
			continue
		}
		samples++
		if holders > 1 {
			overlaps++
		}
	}
	stop.Store(true)
	wg.Wait()
	switch {
	case samples == 0:
		t.Error("no sample completed within eps")
	case overlaps > 0 && overran.Load() == 0:
		t.Errorf("%d of %d samples saw more than one holder, with every participant inside eps", overlaps, samples)
	case overlaps > 0:
		t.Logf("%d of %d samples overlapped, but %d operations overran eps on this host: not conclusive", overlaps, samples, overran.Load())
	}
	hist := r.History()
	if len(hist) < 2 || int64(len(hist)) != acquired.Load() {
		t.Errorf("history has %d grants, claimants counted %d: want the same, and a handover", len(hist), acquired.Load())
	}
	for i, g := range hist {
		if g.Epoch != uint64(i+1) || (i > 0 && g.AcquiredAt <= g.PrevExpiry+vclock.Time(eps)) {
			t.Errorf("grant %d: epoch %d acquired at %d, previous expiry %d, eps %d", i, g.Epoch, g.AcquiredAt, g.PrevExpiry, eps)
		}
	}
}
