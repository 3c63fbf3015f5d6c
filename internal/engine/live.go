//omegalint:allow simdet Live is the wall-clock engine by design: it reads real time, arms real timers and runs on its own goroutine; only the Sim engine carries the determinism obligation.

package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"omegasm/internal/vclock"
)

// LiveConfig parameterizes a live engine.
type LiveConfig struct {
	// TimerUnit converts TimerMachine timeout values into real durations;
	// default DefaultTimerUnit.
	TimerUnit time.Duration
	// InitialTimeout is the value every TimerMachine's timer is first set
	// to; default 1 (as in the simulator).
	InitialTimeout uint64
	// Epoch is the zero of the engine clock; default the moment of Start.
	// Engines whose machines exchange clock readings — the replicas of one
	// store judge a shared lease expiry, each from its own engine — must
	// share one epoch.
	Epoch time.Time
}

func (c *LiveConfig) normalize() {
	if c.TimerUnit <= 0 {
		c.TimerUnit = DefaultTimerUnit
	}
	if c.InitialTimeout == 0 {
		c.InitialTimeout = 1
	}
}

// Live drives a set of machines on one scheduler goroutine with
// deadline-ordered stepping: machines sleep exactly until their earliest
// wake hint, a Notify wakes a machine immediately (a parked KV replica
// wakes on Put enqueue instead of at the next poll tick), and a machine
// hinting WakeNow is re-stepped back to back, so bursts drain at CPU
// speed. Time is vclock.Time nanoseconds since Start (or since
// LiveConfig.Epoch, for engines that share a clock).
type Live struct {
	cfg   LiveConfig
	start time.Time

	mu       sync.Mutex
	machines []*liveMachine
	queue    eventQueue
	seq      uint64
	started  bool
	stopped  bool
	// due is the scheduler's reusable drain buffer: the loop pops every
	// ripe event into it each round, so the hot path never allocates.
	due []event

	kick chan struct{} // wakes the scheduler after a Notify
	halt chan struct{}
	wg   sync.WaitGroup
}

type liveMachine struct {
	m  Machine
	tm TimerMachine // nil when m has no timer task

	firstAt vclock.Time // first step deadline (ns since start)

	// stepMu serializes the machine's step/timer bodies against Crash:
	// after Crash returns, no step of the machine is in flight and none
	// will start.
	stepMu  sync.Mutex
	crashed atomic.Bool

	// stepGen, under Live.mu, invalidates superseded step entries in the
	// queue (a Notify bumps it so the stale future deadline is dropped
	// when popped). Parking needs no flag: a parked machine simply has no
	// live step entry, and Notify pushes one.
	stepGen uint64

	// hot and nudge elide the Notify slow path while the machine is
	// actively draining: hot is true from the moment the scheduler pops a
	// due step until the machine next sleeps (WakeAt) or parks, and nudge
	// is the notifier's flag that new work arrived meanwhile. Notify
	// stores nudge then loads hot; the dispatcher stores hot=false then
	// swaps nudge — the sequentially consistent store/load pairing
	// guarantees that either the notifier sees hot (the machine is still
	// running and will re-step), or the dispatcher sees nudge (and
	// schedules an immediate re-step instead of sleeping). Under commit
	// bursts this turns the per-write Notify from a mutex acquisition
	// into one atomic store and one load.
	hot   atomic.Bool
	nudge atomic.Bool
}

// event and eventQueue are shared by the live and virtual-time engines:
// both order (deadline, arrival) pairs, the only difference being whether
// at counts nanoseconds since Start or abstract ticks.
type evKind int

const (
	evStep evKind = iota + 1
	evTimer
)

type event struct {
	at   vclock.Time
	seq  uint64
	kind evKind
	id   int
	gen  uint64
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// NewLive builds a stopped live engine; Add machines, then Start.
func NewLive(cfg LiveConfig) *Live {
	cfg.normalize()
	return &Live{
		cfg:   cfg,
		start: cfg.Epoch,
		kick:  make(chan struct{}, 1),
		halt:  make(chan struct{}),
	}
}

// AddOpt configures one machine added to a live engine.
type AddOpt func(*liveMachine)

// FirstStepAt sets the machine's first step deadline, in nanoseconds
// since Start (default 0: step as soon as the engine runs).
func FirstStepAt(at vclock.Time) AddOpt {
	return func(m *liveMachine) { m.firstAt = at }
}

// Add registers a machine and returns its id. If m implements
// TimerMachine its timer task is armed at InitialTimeout * TimerUnit.
// Add may only be called before Start.
func (e *Live) Add(m Machine, opts ...AddOpt) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		panic("engine: Add after Start")
	}
	lm := &liveMachine{m: m}
	if tm, ok := m.(TimerMachine); ok {
		lm.tm = tm
	}
	for _, o := range opts {
		o(lm)
	}
	e.machines = append(e.machines, lm)
	return len(e.machines) - 1
}

// now returns nanoseconds since the engine's epoch.
func (e *Live) now() vclock.Time { return int64(time.Since(e.start)) }

// Now returns the engine clock — nanoseconds since the epoch — for callers
// outside machine activations (a machine should use the time its Step
// was handed). Lease validity checks on read paths use this: leases are
// granted and judged against one clock, the engine's.
func (e *Live) Now() vclock.Time { return e.now() }

// Start launches the scheduler goroutine. It may be called once; a
// stopped engine cannot be restarted.
func (e *Live) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return fmt.Errorf("engine: already stopped")
	}
	if e.started {
		return fmt.Errorf("engine: already started")
	}
	e.started = true
	if e.start.IsZero() {
		e.start = time.Now()
	}
	base := e.now() // 0 unless the epoch predates Start
	for id, m := range e.machines {
		e.push(event{at: base + m.firstAt, kind: evStep, id: id, gen: m.stepGen})
		if m.tm != nil {
			e.push(event{
				at:   base + vclock.Time(e.cfg.InitialTimeout)*int64(e.cfg.TimerUnit),
				kind: evTimer, id: id,
			})
		}
	}
	e.wg.Add(1)
	go e.loop()
	return nil
}

// Stop halts the scheduler and joins it. After Stop returns no machine is
// stepping and none will step again. Idempotent.
func (e *Live) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.stopped = true
	started := e.started
	e.mu.Unlock()
	close(e.halt)
	if started {
		e.wg.Wait()
	}
}

// Done returns a channel that is closed once Stop has been called: the
// engine will step nothing further, so anything waiting on a machine's
// progress should give up.
func (e *Live) Done() <-chan struct{} { return e.halt }

// Crash permanently deschedules machine id. When Crash returns, no step or
// timer body of the machine is in flight and none will run again — the
// paper's crash-stop failure. Idempotent; out-of-range ids are a no-op
// (they already read as crashed).
func (e *Live) Crash(id int) {
	if id < 0 || id >= len(e.machines) {
		return
	}
	m := e.machines[id]
	m.crashed.Store(true)
	// Wait out any in-flight step: the dispatcher holds stepMu across the
	// body and re-checks crashed after acquiring it.
	m.stepMu.Lock()
	//lint:ignore SA2001 the critical section is the wait itself
	m.stepMu.Unlock()
}

// Crashed reports whether machine id has been crashed.
func (e *Live) Crashed(id int) bool {
	if id < 0 || id >= len(e.machines) {
		return true
	}
	return e.machines[id].crashed.Load()
}

// Notify wakes machine id immediately: a parked machine is re-scheduled,
// and a machine sleeping toward a poll deadline is pulled forward to now.
// Safe from any goroutine, including machine step bodies. Notifying a
// crashed or stopped engine's machine is a no-op.
func (e *Live) Notify(id int) {
	if id < 0 || id >= len(e.machines) {
		return
	}
	// Fast path: the machine is actively draining (popped and not yet
	// asleep). Flag the new work and return — the dispatcher re-checks
	// nudge before it lets the machine sleep or park, so the wake cannot
	// be lost (see the hot/nudge ordering contract on liveMachine).
	m := e.machines[id]
	m.nudge.Store(true)
	if m.hot.Load() {
		return
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	if m.crashed.Load() {
		e.mu.Unlock()
		return
	}
	m.stepGen++ // invalidate the outstanding (later) step entry, if any
	if e.started {
		e.push(event{at: e.now(), kind: evStep, id: id, gen: m.stepGen})
	} else {
		// Before Start the initial entries have not been seeded yet; just
		// make the first step immediate.
		m.firstAt = 0
	}
	e.mu.Unlock()
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// push enqueues ev; caller holds e.mu. The sift-up is hand-rolled (not
// container/heap) so the scheduler's hot path never boxes an event into
// an interface allocation.
func (e *Live) push(ev event) {
	e.seq++
	ev.seq = e.seq
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.Less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// popMin removes and returns the earliest event; caller holds e.mu and
// has checked the queue is non-empty. Allocation-free for the same
// reason as push.
func (e *Live) popMin() event {
	q := e.queue
	min := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && q.Less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < n && q.Less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	e.queue = q
	return min
}

// loop is the scheduler: pop due events, dispatch, sleep until the next
// deadline or a Notify.
func (e *Live) loop() {
	defer e.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		e.mu.Lock()
		if e.stopped {
			e.mu.Unlock()
			return
		}
		now := e.now()
		due := e.due[:0]
		for e.queue.Len() > 0 && e.queue[0].at <= now {
			ev := e.popMin()
			m := e.machines[ev.id]
			if m.crashed.Load() {
				continue
			}
			if ev.kind == evStep && ev.gen != m.stepGen {
				continue // superseded by a Notify
			}
			if ev.kind == evStep {
				m.hot.Store(true) // Notify elides until the machine sleeps
			}
			due = append(due, ev)
		}
		e.due = due
		var wait time.Duration = -1
		if len(due) == 0 && e.queue.Len() > 0 {
			wait = time.Duration(e.queue[0].at - now)
		}
		e.mu.Unlock()

		if len(due) > 0 {
			for _, ev := range due {
				e.dispatch(ev)
			}
			// Yield between drain rounds: on a saturated host a machine
			// hinting WakeNow in a loop would otherwise starve readers and
			// writers of the structures it is filling.
			runtime.Gosched()
			continue // hints may have queued immediate work
		}

		if wait < 0 {
			wait = time.Hour // everything parked: only a Notify can wake us
		}
		timer.Reset(wait)
		select {
		case <-e.halt:
			timer.Stop()
			return
		case <-e.kick:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		}
	}
}

// dispatch runs one due event's machine body and schedules its successor.
func (e *Live) dispatch(ev event) {
	m := e.machines[ev.id]
	m.stepMu.Lock()
	if m.crashed.Load() {
		m.stepMu.Unlock()
		return
	}
	now := e.now()
	switch ev.kind {
	case evStep:
		hint := m.m.Step(now)
		m.stepMu.Unlock()
		e.mu.Lock()
		if !e.stopped && !m.crashed.Load() && m.stepGen == ev.gen {
			switch hint.Kind {
			case WakeNow:
				// Still draining: hot stays set and any nudge is consumed
				// by the immediate re-step, which observes the new work.
				m.nudge.Store(false)
				e.push(event{at: now, kind: evStep, id: ev.id, gen: m.stepGen})
			case WakeAt, WakePark:
				// About to sleep: drop hot first, then re-check nudge. A
				// Notify that raced past the mutex saw hot and only set
				// nudge — honor it now with an immediate re-step, exactly
				// what its slow path would have scheduled.
				m.hot.Store(false)
				if m.nudge.Swap(false) {
					m.stepGen++
					m.hot.Store(true)
					e.push(event{at: now, kind: evStep, id: ev.id, gen: m.stepGen})
				} else if hint.Kind == WakeAt {
					e.push(event{at: hint.At, kind: evStep, id: ev.id, gen: m.stepGen})
				}
			default:
				panic(fmt.Sprintf("engine: invalid wake hint %+v", hint))
			}
		} else {
			// Superseded (a Notify's fresher entry owns the wake-up) or
			// crashed/stopped: this dispatch no longer controls the
			// machine's sleep state.
			m.hot.Store(false)
		}
		e.mu.Unlock()
	case evTimer:
		x := m.tm.OnTimer(now)
		m.stepMu.Unlock()
		if x > 0 {
			e.mu.Lock()
			if !e.stopped && !m.crashed.Load() {
				e.push(event{
					at:   now + int64(x)*int64(e.cfg.TimerUnit),
					kind: evTimer, id: ev.id,
				})
			}
			e.mu.Unlock()
		}
	}
}
