// Package engine is the single execution layer under every way this
// module drives the paper's state machines. It defines one Machine
// contract — a step function plus a *wake hint* telling the engine when
// the machine next needs CPU — and two engines behind it:
//
//   - Live (live.go): deadline-ordered, notification-driven stepping on
//     real goroutines. A parked machine wakes the moment work is
//     enqueued for it (Notify) instead of at the next tick, and a machine
//     reporting pending work is re-stepped immediately, so bursts drain at
//     CPU speed while idle machines cost one wakeup per poll interval.
//
//   - Sim (sim.go): a deterministic virtual-time engine. The seeded
//     adversary (per-machine Pacing) chooses the interleaving, crash
//     schedules deschedule machines permanently, and all steps serialize
//     on the caller's goroutine, so a run is an exactly reproducible
//     function of its seed. The adversaries themselves are the Pacing
//     implementations of pacing.go.
//
// Mapping to the paper's model: a Machine's Step is one iteration of task
// T2's infinite loop, and a TimerMachine's OnTimer is the body of task T3
// (the engine re-arms the timer to the returned value, paper line 27).
// The wake hint is scheduling metadata only — it never changes what a
// step does, so safety arguments about the state machines are untouched;
// it only decides when the next T2 iteration is granted, which both the
// asynchronous model and the AWB assumption leave to the scheduler.
package engine

import "omegasm/internal/vclock"

// HintKind classifies a Machine's wake hint.
type HintKind int

const (
	// WakeNow: the machine has pending work; step it again as soon as
	// possible (live: immediately; sim: after the adversary's pacing delay).
	WakeNow HintKind = iota + 1
	// WakeAt: the machine is idle until the given time; step it then
	// (its poll deadline).
	WakeAt
	// WakePark: the machine has nothing to do and no deadline; do not step
	// it again until Notify.
	WakePark
)

// Hint is a Machine's answer to "when do you next need to run?".
type Hint struct {
	// Kind selects between WakeNow, WakeAt and WakePark.
	Kind HintKind
	// At is the wake deadline, valid when Kind == WakeAt. Live engines
	// interpret it as nanoseconds since engine start; the sim as a virtual
	// tick.
	At vclock.Time
}

// Now hints that the machine has pending work and wants the next step as
// soon as the engine can grant it.
func Now() Hint { return Hint{Kind: WakeNow} }

// At hints that the machine is idle until time t.
func At(t vclock.Time) Hint { return Hint{Kind: WakeAt, At: t} }

// Park hints that the machine should not be stepped again until Notify.
func Park() Hint { return Hint{Kind: WakePark} }

// Machine is one drivable state machine: a consensus replica, a KV store,
// an election process's main loop. Step runs one iteration at time now
// and returns the machine's wake hint.
type Machine interface {
	// Step runs one iteration at time now and returns the wake hint.
	Step(now vclock.Time) Hint
}

// TimerMachine is a Machine with the paper's task T3: a timer the engine
// arms for it. OnTimer runs the expiry handler and returns the next
// timeout value x; the engine re-arms the timer to expire after the
// machine's timer behavior maps x to a duration (live: x * TimerUnit).
// Returning 0 disarms the timer permanently (the timer-free variant).
type TimerMachine interface {
	Machine
	// OnTimer runs the expiry handler at time now and returns the next
	// abstract timeout value (0 disarms the timer permanently).
	OnTimer(now vclock.Time) (next uint64)
}

// MachineFunc adapts a function to Machine.
type MachineFunc func(now vclock.Time) Hint

// Step implements Machine.
func (f MachineFunc) Step(now vclock.Time) Hint { return f(now) }
