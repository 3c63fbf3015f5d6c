package engine

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"omegasm/internal/vclock"
)

// simRecorder records step/timer times.
type simRecorder struct {
	stepTimes []vclock.Time
	fireTimes []vclock.Time
	hint      func(now vclock.Time) Hint
	next      uint64
}

func (r *simRecorder) Step(now vclock.Time) Hint {
	r.stepTimes = append(r.stepTimes, now)
	if r.hint != nil {
		return r.hint(now)
	}
	return Now()
}

func (r *simRecorder) OnTimer(now vclock.Time) uint64 {
	r.fireTimes = append(r.fireTimes, now)
	return r.next
}

func TestSimValidation(t *testing.T) {
	if _, err := NewSim(SimConfig{Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func(seed int64) []vclock.Time {
		s, err := NewSim(SimConfig{Seed: seed, Horizon: 5000})
		if err != nil {
			t.Fatal(err)
		}
		r := &simRecorder{next: 1}
		s.Add(r, WithTimer(vclock.Exact{Scale: 4, Floor: 1}, 1))
		s.Add(&simRecorder{next: 1}, WithTimer(vclock.Exact{Scale: 4, Floor: 1}, 1))
		s.Run()
		return r.stepTimes
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, run(43)) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestSimCrashSchedule(t *testing.T) {
	s, err := NewSim(SimConfig{Seed: 1, Horizon: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	r := &simRecorder{next: 1}
	id := s.Add(r, WithCrashAt(2_000), WithTimer(vclock.Exact{Scale: 4}, 1))
	s.Run()
	if !s.Crashed(id) {
		t.Fatal("machine did not crash")
	}
	if s.CrashTime(id) != 2_000 {
		t.Fatalf("CrashTime = %d", s.CrashTime(id))
	}
	for _, ts := range append(r.stepTimes, r.fireTimes...) {
		if ts >= 2_000 {
			t.Fatalf("crashed machine ran at t=%d", ts)
		}
	}
}

func TestSimWakeAtAndPark(t *testing.T) {
	s, err := NewSim(SimConfig{Seed: 1, Horizon: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	// A fixed-cadence machine: wakes exactly every 100 ticks.
	cadence := &simRecorder{}
	cadence.hint = func(now vclock.Time) Hint { return At(now + 100) }
	s.Add(cadence, WithFirstWakeAt(100))
	// A parked machine: steps once, then parks forever.
	parked := &simRecorder{}
	parked.hint = func(vclock.Time) Hint { return Park() }
	s.Add(parked, WithFirstWakeAt(1))
	s.Run()
	if len(cadence.stepTimes) != 10 {
		t.Fatalf("cadence machine stepped %d times, want 10: %v", len(cadence.stepTimes), cadence.stepTimes)
	}
	for i, ts := range cadence.stepTimes {
		if ts != vclock.Time(100*(i+1)) {
			t.Fatalf("cadence step %d at t=%d", i, ts)
		}
	}
	if len(parked.stepTimes) != 1 {
		t.Fatalf("parked machine stepped %d times, want 1", len(parked.stepTimes))
	}
}

func TestSimNotifyWakesParked(t *testing.T) {
	s, err := NewSim(SimConfig{Seed: 1, Horizon: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	parked := &simRecorder{}
	parked.hint = func(vclock.Time) Hint { return Park() }
	parkedID := s.Add(parked, WithFirstWakeAt(1))
	// A poker machine notifies the parked one at t=500.
	poker := &simRecorder{}
	poker.hint = func(now vclock.Time) Hint {
		s.Notify(parkedID)
		return Park()
	}
	s.Add(poker, WithFirstWakeAt(500))
	s.Run()
	if len(parked.stepTimes) != 2 {
		t.Fatalf("parked machine stepped %d times, want 2 (initial + notified)", len(parked.stepTimes))
	}
	if got := parked.stepTimes[1]; got != 501 {
		t.Errorf("notified wake at t=%d, want 501", got)
	}
}

func TestSimNotifyAfterCrashIsNoOp(t *testing.T) {
	s, err := NewSim(SimConfig{Seed: 1, Horizon: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	// A machine that parks immediately: after its crash time passes, no
	// event is left to collect it — it is dead but uncollected.
	parked := &simRecorder{}
	parked.hint = func(vclock.Time) Hint { return Park() }
	parkedID := s.Add(parked, WithFirstWakeAt(1), WithCrashAt(200))
	// A poker notifies it at t=500, well after the crash time.
	poker := &simRecorder{}
	poker.hint = func(now vclock.Time) Hint {
		s.Notify(parkedID)
		return Park()
	}
	s.Add(poker, WithFirstWakeAt(500))
	s.Run()
	if len(parked.stepTimes) != 1 {
		t.Fatalf("dead machine stepped %d times, want 1 (notify after crash must be a no-op)",
			len(parked.stepTimes))
	}
	if !s.Crashed(parkedID) {
		t.Fatal("dead-but-parked machine not reported crashed")
	}
	if got := s.CrashTime(parkedID); got != 200 {
		t.Fatalf("CrashTime = %d, want 200", got)
	}
}

func TestSimCrashedReportsDueParkedMachine(t *testing.T) {
	s, err := NewSim(SimConfig{Seed: 1, Horizon: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	parked := &simRecorder{}
	parked.hint = func(vclock.Time) Hint { return Park() }
	parkedID := s.Add(parked, WithFirstWakeAt(1), WithCrashAt(200))
	var during, timeAt []bool
	probe := &simRecorder{}
	probe.hint = func(now vclock.Time) Hint {
		during = append(during, s.Crashed(parkedID))
		timeAt = append(timeAt, s.CrashTime(parkedID) == 200)
		return Park()
	}
	s.Add(probe, WithFirstWakeAt(100))
	probe2 := &simRecorder{}
	probe2.hint = func(now vclock.Time) Hint {
		during = append(during, s.Crashed(parkedID))
		timeAt = append(timeAt, s.CrashTime(parkedID) == 200)
		return Park()
	}
	s.Add(probe2, WithFirstWakeAt(900))
	s.Run()
	if len(during) != 2 {
		t.Fatalf("probes ran %d times, want 2", len(during))
	}
	if during[0] {
		t.Error("machine reported crashed before its crash time")
	}
	if !during[1] || !timeAt[1] {
		t.Error("parked machine past its crash time must report crashed with its scheduled time")
	}
}

func TestSimNotifyAfterCrashPreservesTieBreaks(t *testing.T) {
	// A spurious gen-bump/event from notifying a dead machine would
	// consume a sequence number and perturb same-time tie-breaks. Run the
	// same live machines with and without a dead bystander being notified;
	// the live schedule must be identical.
	run := func(withDead bool) []vclock.Time {
		s, err := NewSim(SimConfig{Seed: 7, Horizon: 5_000})
		if err != nil {
			t.Fatal(err)
		}
		dead := &simRecorder{}
		dead.hint = func(vclock.Time) Hint { return Park() }
		deadID := s.Add(dead, WithFirstWakeAt(1), WithCrashAt(100))
		live := &simRecorder{next: 1}
		s.Add(live, WithTimer(vclock.Exact{Scale: 4, Floor: 1}, 1))
		poker := &simRecorder{}
		poker.hint = func(now vclock.Time) Hint {
			if withDead {
				s.Notify(deadID)
			}
			return At(now + 50)
		}
		s.Add(poker, WithFirstWakeAt(200))
		s.Run()
		return live.stepTimes
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("notifying a dead machine perturbed the live schedule")
	}
}

func TestSimStopEndsRun(t *testing.T) {
	s, err := NewSim(SimConfig{Seed: 1, Horizon: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	m := &simRecorder{}
	m.hint = func(now vclock.Time) Hint {
		if now >= 1_000 {
			s.Stop()
		}
		return Now()
	}
	s.Add(m)
	end := s.Run()
	if end > 2_000 {
		t.Fatalf("Stop ignored: run ended at %d", end)
	}
}

// recordedBody is a paper process as AlwaysReady sees it: a T2 body, a
// T3 handler returning nextX, no wake hint of its own.
type recordedBody struct {
	stepTimes []vclock.Time
	fireTimes []vclock.Time
	nextX     uint64 // returned by OnTimer; 0 disarms
}

func (b *recordedBody) Step(now vclock.Time) { b.stepTimes = append(b.stepTimes, now) }
func (b *recordedBody) OnTimer(now vclock.Time) uint64 {
	b.fireTimes = append(b.fireTimes, now)
	return b.nextX
}

// runBodies runs one always-ready machine per nextX value, each with
// timer behavior b first set to initial.
func runBodies(t *testing.T, horizon vclock.Time, b vclock.Behavior, initial uint64, nextX ...uint64) (*Sim, []*recordedBody) {
	t.Helper()
	s, err := NewSim(SimConfig{Seed: 1, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]*recordedBody, len(nextX))
	for i, x := range nextX {
		bodies[i] = &recordedBody{nextX: x}
		s.Add(AlwaysReady(bodies[i]), WithTimer(b, initial))
	}
	s.Run()
	return s, bodies
}

func TestTimerRearmUsesReturnedValue(t *testing.T) {
	// nextX = 10 with Exact{Scale 3, Floor 0} => firings 10*3=30 ticks
	// apart (after the initial firing at Expire(0, initial)).
	_, bodies := runBodies(t, 1_000, vclock.Exact{Scale: 3}, 2, 10, 10)
	fires := bodies[0].fireTimes
	if len(fires) < 3 {
		t.Fatalf("too few firings: %v", fires)
	}
	if fires[0] != 6 { // Expire(0, 2) = 6
		t.Errorf("first firing at %d, want 6", fires[0])
	}
	for i := 1; i < len(fires); i++ {
		if got := fires[i] - fires[i-1]; got != 30 {
			t.Fatalf("firing gap %d, want 30 (timer must re-arm to returned x)", got)
		}
	}
}

func TestTimerDisarmOnZero(t *testing.T) {
	_, bodies := runBodies(t, 10_000, vclock.Exact{Scale: 4, Floor: 1}, 1, 0, 1)
	if got := len(bodies[0].fireTimes); got != 1 {
		t.Fatalf("disarmed timer fired %d times, want exactly the initial firing", got)
	}
	if len(bodies[1].fireTimes) < 10 {
		t.Errorf("armed timer fired only %d times", len(bodies[1].fireTimes))
	}
}

func TestStepsAndFiringsCounted(t *testing.T) {
	s, bodies := runBodies(t, 5_000, vclock.Exact{Scale: 4, Floor: 1}, 1, 1, 1)
	for i, b := range bodies {
		if s.Steps(i) != uint64(len(b.stepTimes)) {
			t.Errorf("Steps(%d) = %d, want %d", i, s.Steps(i), len(b.stepTimes))
		}
		if s.TimerFirings(i) != uint64(len(b.fireTimes)) {
			t.Errorf("TimerFirings(%d) = %d, want %d", i, s.TimerFirings(i), len(b.fireTimes))
		}
	}
	if s.Now() < 4_900 {
		t.Errorf("run ended early at %d", s.Now())
	}
}

type bodyFunc func(now vclock.Time)

func (f bodyFunc) Step(now vclock.Time) { f(now) }

// TestAuxStepper: a body without a task T3 (a replica co-scheduled with
// the election) steps at exactly its pacing, forever.
func TestAuxStepper(t *testing.T) {
	s, err := NewSim(SimConfig{Seed: 1, Horizon: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	var auxTimes []vclock.Time
	s.Add(AlwaysReady(bodyFunc(func(now vclock.Time) { auxTimes = append(auxTimes, now) })), WithPacing(Fixed{D: 50}))
	s.Run()
	if len(auxTimes) < 90 {
		t.Fatalf("aux stepped %d times, want ~100", len(auxTimes))
	}
	for i := 1; i < len(auxTimes); i++ {
		if auxTimes[i]-auxTimes[i-1] != 50 {
			t.Fatalf("aux pacing not honored: gap %d", auxTimes[i]-auxTimes[i-1])
		}
	}
}

// TestEventQueueOrder: over a seeded random interleaving of pushes and
// pops, with many events sharing a deadline, popMin always returns the
// pending event a sort by (at, seq) puts first.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	byAtSeq := func(a, b event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
	var q eventQueue
	var pending []event
	var seq uint64
	pop := func() {
		slices.SortFunc(pending, byAtSeq)
		if got := q.popMin(); got != pending[0] {
			t.Fatalf("popMin = %+v, want %+v", got, pending[0])
		}
		pending = pending[1:]
	}
	for i := 0; i < 5_000; i++ {
		if len(pending) > 0 && rng.Intn(5) < 2 {
			pop()
			continue
		}
		seq++
		ev := event{at: vclock.Time(rng.Intn(16)), seq: seq, kind: evStep, id: rng.Intn(4)}
		q.push(ev)
		pending = append(pending, ev)
	}
	for len(pending) > 0 {
		pop()
	}
	if len(q) != 0 {
		t.Fatalf("%d events left after draining", len(q))
	}
}

// quietTimer is an always-ready machine with a task T3 that allocates
// nothing of its own.
type quietTimer struct{}

func (quietTimer) Step(vclock.Time) Hint      { return Now() }
func (quietTimer) OnTimer(vclock.Time) uint64 { return 1 }

// TestSimAllocsDoNotScaleWithEvents: a run's allocations are its setup
// (machines, rng, the queue's peak backing array), not a cost per event —
// ten times the horizon allocates exactly as much.
func TestSimAllocsDoNotScaleWithEvents(t *testing.T) {
	allocs := func(horizon vclock.Time) float64 {
		return testing.AllocsPerRun(5, func() {
			s, err := NewSim(SimConfig{Seed: 1, Horizon: horizon})
			if err != nil {
				t.Fatal(err)
			}
			s.Add(quietTimer{}, WithTimer(vclock.Exact{Scale: 4, Floor: 1}, 1))
			parked := s.Add(MachineFunc(func(vclock.Time) Hint { return Park() }))
			notified := false
			s.Add(MachineFunc(func(now vclock.Time) Hint {
				if !notified && now >= 5_000 {
					notified = true
					s.Notify(parked)
				}
				return At(now + 7)
			}))
			s.Run()
			if s.Steps(parked) != 2 {
				t.Fatalf("parked machine stepped %d times, want 2 (initial + notified)", s.Steps(parked))
			}
		})
	}
	short, long := allocs(10_000), allocs(100_000)
	if short != long {
		t.Fatalf("allocations grow with the run: %.0f at horizon 10k, %.0f at 100k", short, long)
	}
}
