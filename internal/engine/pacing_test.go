package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"omegasm/internal/vclock"
)

func testRng() *rand.Rand { return rand.New(rand.NewSource(7)) }

func TestFixedPacing(t *testing.T) {
	rng := testRng()
	if got := (Fixed{D: 5}).Next(rng, 0); got != 5 {
		t.Errorf("Fixed{5}.Next = %d", got)
	}
	if got := (Fixed{D: 0}).Next(rng, 0); got != 1 {
		t.Errorf("Fixed{0} must clamp to 1, got %d", got)
	}
}

func TestUniformPacingBounds(t *testing.T) {
	rng := testRng()
	u := Uniform{Min: 3, Max: 9}
	for i := 0; i < 1000; i++ {
		d := u.Next(rng, 0)
		if d < 3 || d > 9 {
			t.Fatalf("Uniform out of bounds: %d", d)
		}
	}
	// Degenerate configurations clamp sanely.
	if d := (Uniform{Min: 0, Max: 0}).Next(rng, 0); d != 1 {
		t.Errorf("Uniform{0,0} = %d, want 1", d)
	}
	if d := (Uniform{Min: 7, Max: 2}).Next(rng, 0); d != 7 {
		t.Errorf("Uniform{7,2} (max<min) = %d, want 7", d)
	}
}

func TestHeavyTailStalls(t *testing.T) {
	rng := testRng()
	h := HeavyTail{Min: 1, Max: 4, StallP: 0.5, StallMax: 100}
	sawStall, sawBase := false, false
	for i := 0; i < 1000; i++ {
		d := h.Next(rng, 0)
		if d > 4 {
			sawStall = true
			if d > 100 {
				t.Fatalf("stall exceeds StallMax: %d", d)
			}
		} else {
			sawBase = true
		}
	}
	if !sawStall || !sawBase {
		t.Errorf("heavy tail did not mix: stall=%v base=%v", sawStall, sawBase)
	}
	// StallP=0 never stalls.
	h0 := HeavyTail{Min: 1, Max: 4, StallP: 0, StallMax: 100}
	for i := 0; i < 200; i++ {
		if d := h0.Next(rng, 0); d > 4 {
			t.Fatalf("StallP=0 stalled: %d", d)
		}
	}
}

func TestPhaseSwitches(t *testing.T) {
	rng := testRng()
	p := Phase{At: 100, Before: Fixed{D: 2}, After: Fixed{D: 7}}
	if got := p.Next(rng, 99); got != 2 {
		t.Errorf("before boundary: %d", got)
	}
	if got := p.Next(rng, 100); got != 7 {
		t.Errorf("at boundary: %d", got)
	}
}

func TestGrowingStallDoublesAndCaps(t *testing.T) {
	rng := testRng()
	g := &GrowingStall{Min: 1, Max: 1, Every: 2, First: 10, Cap: 35}
	var stalls []vclock.Duration
	for i := 0; i < 12; i++ {
		d := g.Next(rng, 0)
		if d > 1 {
			stalls = append(stalls, d)
		}
	}
	want := []vclock.Duration{10, 20, 35, 35, 35, 35}
	if len(stalls) != len(want) {
		t.Fatalf("stalls = %v, want %v", stalls, want)
	}
	for i := range want {
		if stalls[i] != want[i] {
			t.Fatalf("stalls = %v, want %v", stalls, want)
		}
	}
}

func TestGrowingStallDefaults(t *testing.T) {
	rng := testRng()
	g := &GrowingStall{Every: 0, First: 0} // every step stalls; First clamps to 1
	if d := g.Next(rng, 0); d != 1 {
		t.Errorf("first degenerate stall = %d, want 1", d)
	}
	if d := g.Next(rng, 0); d != 2 {
		t.Errorf("second stall = %d, want 2", d)
	}
}

func TestLockstepAlignsToPhase(t *testing.T) {
	rng := testRng()
	l := Lockstep{Period: 8, Offset: 3}
	for _, now := range []vclock.Time{0, 1, 2, 3, 7, 8, 100, 1023} {
		d := l.Next(rng, now)
		if d < 1 {
			t.Fatalf("Lockstep returned %d at now=%d", d, now)
		}
		if (now+d-3)%8 != 0 {
			t.Fatalf("step at %d not phase-aligned (now=%d)", now+d, now)
		}
	}
	// Degenerate period.
	if d := (Lockstep{Period: 0}).Next(rng, 5); d != 1 {
		t.Errorf("Lockstep{0} = %d, want 1", d)
	}
}

// TestAllPacingsPositive: property — every pacing returns >= 1 for any
// time, which the scheduler needs for progress.
func TestAllPacingsPositive(t *testing.T) {
	pacings := []Pacing{
		Fixed{},
		Uniform{Min: -3, Max: -1},
		HeavyTail{Min: -1, Max: 0, StallP: 1, StallMax: -5},
		Phase{At: 10, Before: Fixed{}, After: Uniform{}},
		&GrowingStall{},
		Lockstep{Period: 5, Offset: -12},
	}
	rng := testRng()
	f := func(nowRaw int32) bool {
		now := vclock.Time(nowRaw)
		if now < 0 {
			now = -now
		}
		for _, p := range pacings {
			if p.Next(rng, now) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStallOnceFiresExactlyOnce(t *testing.T) {
	rng := testRng()
	s := &StallOnce{At: 100, Dur: 5000, Base: Fixed{D: 2}}
	if d := s.Next(rng, 50); d != 2 {
		t.Fatalf("pre-stall delay %d, want base 2", d)
	}
	if d := s.Next(rng, 120); d != 5000 {
		t.Fatalf("stall delay %d, want 5000", d)
	}
	if d := s.Next(rng, 6000); d != 2 {
		t.Fatalf("post-stall delay %d, want base 2 (stall must fire once)", d)
	}
}

func TestStallOnceDefaults(t *testing.T) {
	rng := testRng()
	s := &StallOnce{At: 0, Dur: 0} // degenerate: stall clamps to 1, base defaults
	if d := s.Next(rng, 0); d != 1 {
		t.Fatalf("degenerate stall = %d, want 1", d)
	}
	if d := s.Next(rng, 10); d < 1 || d > 8 {
		t.Fatalf("default base delay = %d, want in [1,8]", d)
	}
}

func TestOwnRngIsolatesSequences(t *testing.T) {
	// Two OwnRng pacings with the same seed produce identical sequences
	// regardless of the shared rng passed in.
	mk := func() Pacing {
		return OwnRng{Rng: rand.New(rand.NewSource(5)), P: Uniform{Min: 1, Max: 1000}}
	}
	a, b := mk(), mk()
	sharedA, sharedB := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(999))
	for i := 0; i < 100; i++ {
		da := a.Next(sharedA, vclock.Time(i))
		db := b.Next(sharedB, vclock.Time(i*7))
		if da != db {
			t.Fatalf("OwnRng sequences diverged at %d: %d vs %d", i, da, db)
		}
	}
}

func TestChaseStallsOnlyTheTarget(t *testing.T) {
	rng := testRng()
	target := 1
	c0 := &Chase{Self: 0, Target: &target, Base: Fixed{D: 2}, Stall: 500}
	c1 := &Chase{Self: 1, Target: &target, Base: Fixed{D: 2}, Stall: 500}
	if d := c0.Next(rng, 0); d != 2 {
		t.Fatalf("non-target delayed %d, want base 2", d)
	}
	if d := c1.Next(rng, 0); d != 500 {
		t.Fatalf("target delayed %d, want stall 500", d)
	}
	// Bounded chase: stall stays fixed.
	if d := c1.Next(rng, 0); d != 500 {
		t.Fatalf("bounded stall grew to %d", d)
	}
	// Retargeting moves the persecution.
	target = 0
	if d := c0.Next(rng, 0); d != 500 {
		t.Fatalf("new target delayed %d, want 500", d)
	}
	if d := c1.Next(rng, 0); d != 2 {
		t.Fatalf("released process delayed %d, want base", d)
	}
}

func TestChaseGrowingDoubles(t *testing.T) {
	rng := testRng()
	target := 0
	c := &Chase{Self: 0, Target: &target, Stall: 10, Grow: true}
	want := []vclock.Duration{10, 20, 40, 80}
	for i, w := range want {
		if d := c.Next(rng, 0); d != w {
			t.Fatalf("stall %d = %d, want %d", i, d, w)
		}
	}
	// Nil target: never chased, default base applies.
	free := &Chase{Self: 0, Target: nil, Stall: 10}
	if d := free.Next(rng, 0); d < 1 || d > 8 {
		t.Fatalf("nil-target delay %d, want default base in [1,8]", d)
	}
}
