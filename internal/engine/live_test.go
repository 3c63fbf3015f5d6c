package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"omegasm/internal/vclock"
)

// stepRecorder counts steps and returns a configurable hint.
type stepRecorder struct {
	steps atomic.Int64
	hint  func(now vclock.Time, steps int64) Hint
}

func (r *stepRecorder) Step(now vclock.Time) Hint {
	n := r.steps.Add(1)
	return r.hint(now, n)
}

func TestLiveParkAndNotify(t *testing.T) {
	woken := make(chan vclock.Time, 16)
	m := &stepRecorder{hint: func(now vclock.Time, steps int64) Hint {
		woken <- now
		return Park()
	}}
	e := NewLive(LiveConfig{})
	id := e.Add(m)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// The initial step (FirstStepAt 0) runs promptly, then the machine is
	// parked: no further steps without a Notify.
	select {
	case <-woken:
	case <-time.After(2 * time.Second):
		t.Fatal("initial step never ran")
	}
	time.Sleep(20 * time.Millisecond)
	if got := m.steps.Load(); got != 1 {
		t.Fatalf("parked machine stepped %d times, want 1", got)
	}
	// A Notify wakes it promptly — far faster than any polling interval.
	start := time.Now()
	e.Notify(id)
	select {
	case <-woken:
	case <-time.After(2 * time.Second):
		t.Fatal("Notify did not wake the parked machine")
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Errorf("wakeup took %v", waited)
	}
}

func TestLiveWakeNowDrainsBursts(t *testing.T) {
	const burst = 1000
	done := make(chan struct{})
	m := &stepRecorder{}
	m.hint = func(now vclock.Time, steps int64) Hint {
		if steps == burst {
			close(done)
		}
		if steps < burst {
			return Now()
		}
		return Park()
	}
	e := NewLive(LiveConfig{})
	e.Add(m)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// 1000 back-to-back steps must complete far faster than 1000 polling
	// intervals (200ms at the default cadence) would allow.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("burst did not drain: %d steps", m.steps.Load())
	}
}

func TestLiveDeadlineOrderedPolling(t *testing.T) {
	interval := 5 * time.Millisecond
	m := &stepRecorder{hint: func(now vclock.Time, steps int64) Hint {
		return At(now + int64(interval))
	}}
	e := NewLive(LiveConfig{})
	e.Add(m)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	e.Stop()
	got := m.steps.Load()
	// ~20 deadlines in the window; a blind busy loop would run thousands.
	if got < 5 || got > 60 {
		t.Errorf("steps = %d, want a deadline-paced count (~20)", got)
	}
}

// timerProc parks its step task and counts timer firings.
type timerProc struct {
	fired atomic.Int64
	next  uint64
}

func (p *timerProc) Step(vclock.Time) Hint { return Park() }
func (p *timerProc) OnTimer(vclock.Time) uint64 {
	p.fired.Add(1)
	return p.next
}

func TestLiveTimerRearmAndDisarm(t *testing.T) {
	p := &timerProc{next: 1}
	e := NewLive(LiveConfig{TimerUnit: time.Millisecond})
	e.Add(p)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	e.Stop()
	if got := p.fired.Load(); got < 3 {
		t.Errorf("timer fired %d times, want repeated re-arming", got)
	}

	// next = 0 disarms after the first firing.
	p2 := &timerProc{next: 0}
	e2 := NewLive(LiveConfig{TimerUnit: time.Millisecond})
	e2.Add(p2)
	if err := e2.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	e2.Stop()
	if got := p2.fired.Load(); got != 1 {
		t.Errorf("disarmed timer fired %d times, want exactly 1", got)
	}
}

func TestLiveCrashStopsMachine(t *testing.T) {
	m := &stepRecorder{hint: func(now vclock.Time, _ int64) Hint {
		return At(now + int64(time.Millisecond))
	}}
	e := NewLive(LiveConfig{})
	id := e.Add(m)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	time.Sleep(10 * time.Millisecond)
	e.Crash(id)
	after := m.steps.Load()
	if !e.Crashed(id) {
		t.Fatal("Crashed() false after Crash")
	}
	time.Sleep(20 * time.Millisecond)
	if got := m.steps.Load(); got != after {
		t.Errorf("crashed machine stepped %d more times", got-after)
	}
	// Notify on a crashed machine is a no-op.
	e.Notify(id)
	time.Sleep(10 * time.Millisecond)
	if got := m.steps.Load(); got != after {
		t.Errorf("notified crashed machine stepped")
	}
}

func TestLiveStopIdempotentAndOutOfRange(t *testing.T) {
	e := NewLive(LiveConfig{})
	e.Add(&stepRecorder{hint: func(vclock.Time, int64) Hint { return Park() }})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Error("second Start accepted")
	}
	e.Stop()
	e.Stop()
	if !e.Crashed(99) {
		t.Error("out-of-range machine must read as crashed")
	}
	e.Notify(99) // must not panic
}

// TestLiveSharedEpoch: engines built on one epoch read one clock — valid
// before Start, which is what lets machines on different schedulers
// judge a shared expiry — while first-step deadlines stay relative to
// Start, however old the epoch is.
func TestLiveSharedEpoch(t *testing.T) {
	const age = time.Hour
	epoch := time.Now().Add(-age)
	a := NewLive(LiveConfig{Epoch: epoch})
	b := NewLive(LiveConfig{Epoch: epoch})
	defer a.Stop()
	defer b.Stop()
	if na, nb := a.Now(), b.Now(); na < int64(age) || nb < na || nb-na > int64(time.Second) {
		t.Fatalf("clocks before Start: %d and %d, want both just past %d", na, nb, int64(age))
	}
	const first = 20 * time.Millisecond
	stepped := make(chan vclock.Time, 1)
	a.Add(MachineFunc(func(now vclock.Time) Hint {
		stepped <- now
		return Park()
	}), FirstStepAt(int64(first)))
	started := a.Now()
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case now := <-stepped:
		if now < started+int64(first) {
			t.Errorf("first step at %d, before Start (%d) + %v", now, started, first)
		}
		if nb := b.Now(); nb < now || nb-now > int64(time.Second) {
			t.Errorf("engine b reads %d while a's machine stepped at %d", nb, now)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("machine never stepped")
	}
}
