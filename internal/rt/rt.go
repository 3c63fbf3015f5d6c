// Package rt is the live runtime: it runs the core state machines over
// the live engine (internal/engine) with real-time deadlines. The runtime
// is substrate-agnostic: processes close over registers of any shmem.Mem
// (sync/atomic words, SAN-replicated disks, ...) — rt only schedules
// their steps, so one runtime serves every substrate the public API can
// be configured with.
//
// Mapping to the paper's model:
//
//   - Task T2's infinite loop is an engine machine whose wake hint asks
//     for the next step StepInterval after the previous one.
//   - Task T3's timer is the engine's timer task, armed to TimerUnit * x
//     after every firing, where x is the value the algorithm set the
//     timer to (paper line 27). On a healthy machine the elapsed duration
//     of a Go timer is at least its programmed duration, i.e.
//     T_R(tau, x) >= TimerUnit * x: an asymptotically well-behaved timer
//     dominating f(tau, x) = TimerUnit*x by construction — AWB2 holds.
//     AWB1 holds for any process whose engine keeps granting it steps,
//     which the Go runtime guarantees for a runnable scheduler goroutine.
//   - A crash permanently deschedules a node's machine: a crashed process
//     takes no further steps and writes nothing, exactly the paper's
//     crash-stop failure.
//
// The engine's scheduler goroutine is joined on Stop — the runtime never
// leaks.
package rt

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/vclock"
)

// Config parameterizes the live runtime.
type Config struct {
	// StepInterval is the pause between T2 iterations; default
	// engine.DefaultStepInterval (200us).
	StepInterval time.Duration
	// TimerUnit converts the algorithm's timeout value x into a real
	// duration; default engine.DefaultTimerUnit (2ms).
	TimerUnit time.Duration
}

func (c *Config) normalize() {
	if c.StepInterval <= 0 {
		c.StepInterval = engine.DefaultStepInterval
	}
	if c.TimerUnit <= 0 {
		c.TimerUnit = engine.DefaultTimerUnit
	}
}

// Runtime drives a set of processes on the live engine: one engine per
// node, so a node's T2 and T3 bodies serialize with each other (as they
// always did, under the old per-node mutex) while different nodes run
// concurrently — on the SAN substrate a step blocks in quorum disk I/O,
// and one node's slow quorum must not stall its peers' timers.
type Runtime struct {
	cfg   Config
	nodes []*node
	// changed is the hook OnChange installed (nil: none), shared by every
	// node.
	changed atomic.Pointer[func()]
}

// node adapts one core.Proc to the engine's machine contract. Step and OnTimer
// bodies run only on the engine's scheduler goroutine; the published
// leader estimate is the lock-free read path.
type node struct {
	proc     core.Proc
	eng      *engine.Live
	interval vclock.Duration // StepInterval in ns

	// leaderEst is the node's published leader estimate, re-published
	// after every Step/OnTimer. Leader queries read it without touching
	// the engine, so high-rate oracle queries (the Fleet fast path) never
	// contend with the algorithm's own tasks.
	leaderEst atomic.Int64
	crashed   atomic.Bool
	// changed is the runtime's OnChange hook.
	changed *atomic.Pointer[func()]
}

// publish refreshes the node's lock-free leader estimate, right after the
// proc took a step, and reports a change to the OnChange hook. Only this
// node's scheduler stores the word, so comparing before storing is exact,
// and an unchanged estimate costs readers no cache-line invalidation.
func (n *node) publish() {
	l := int64(n.proc.Leader())
	if n.leaderEst.Load() == l {
		return
	}
	n.leaderEst.Store(l)
	n.report()
}

// report calls the OnChange hook, if one is installed.
func (n *node) report() {
	if f := n.changed.Load(); f != nil {
		(*f)()
	}
}

// Step implements engine.Machine (task T2).
func (n *node) Step(now vclock.Time) engine.Hint {
	n.proc.Step(now)
	n.publish()
	return engine.At(now + n.interval)
}

// OnTimer implements engine.TimerMachine (task T3).
func (n *node) OnTimer(now vclock.Time) uint64 {
	x := n.proc.OnTimer(now)
	n.publish()
	return x
}

// New builds a runtime over the given processes.
func New(cfg Config, procs []core.Proc) (*Runtime, error) {
	if len(procs) < 2 {
		return nil, fmt.Errorf("rt: need at least 2 processes, got %d", len(procs))
	}
	cfg.normalize()
	r := &Runtime{cfg: cfg}
	for _, p := range procs {
		n := &node{
			proc:     p,
			eng:      engine.NewLive(engine.LiveConfig{TimerUnit: cfg.TimerUnit}),
			interval: int64(cfg.StepInterval),
			changed:  &r.changed,
		}
		n.leaderEst.Store(int64(p.Leader()))
		// The first step lands one interval after Start, as the old
		// per-node ticker did.
		n.eng.Add(n, engine.FirstStepAt(int64(cfg.StepInterval)))
		r.nodes = append(r.nodes, n)
	}
	return r, nil
}

// Start launches every node's engine. It may be called once.
func (r *Runtime) Start() error {
	for i, n := range r.nodes {
		if err := n.eng.Start(); err != nil {
			for _, prev := range r.nodes[:i] {
				prev.eng.Stop()
			}
			return err
		}
	}
	return nil
}

// Stop crashes every node and joins all engines. Idempotent.
func (r *Runtime) Stop() {
	for _, n := range r.nodes {
		n.crashed.Store(true)
	}
	for _, n := range r.nodes {
		n.eng.Stop()
	}
}

// Crash stops process i permanently, simulating a crash-stop failure. The
// node's registers keep their last values, as in the paper's model. When
// Crash returns, no step of i is in flight and none will run again.
func (r *Runtime) Crash(i int) error {
	if i < 0 || i >= len(r.nodes) {
		return fmt.Errorf("rt: no process %d", i)
	}
	r.nodes[i].crashed.Store(true)
	r.nodes[i].eng.Crash(0)
	r.nodes[i].report()
	return nil
}

// OnChange installs f as the runtime's change report: it is called after
// every change of a node's published leader estimate (on that node's
// scheduler goroutine, right after the store) and after every Crash (on
// the caller's). Agreement, as AgreedLeader reads it, is a function of
// the estimates and the crash flags, so every agreement transition —
// ok to !ok to ok on the same leader included — follows a report. f must
// not block: it runs inside an election step. nil removes the hook; safe
// to call while the runtime runs.
func (r *Runtime) OnChange(f func()) {
	if f == nil {
		r.changed.Store(nil)
		return
	}
	r.changed.Store(&f)
}

// Crashed reports whether process i has been crashed.
func (r *Runtime) Crashed(i int) bool {
	if i < 0 || i >= len(r.nodes) {
		return true
	}
	return r.nodes[i].crashed.Load()
}

// Leader returns process i's current leader estimate (task T1). It reads
// the node's published estimate — a single atomic load, never blocking on
// the process's own tasks — so oracle queries scale with readers.
func (r *Runtime) Leader(i int) (int, error) {
	if i < 0 || i >= len(r.nodes) {
		return -1, fmt.Errorf("rt: no process %d", i)
	}
	return int(r.nodes[i].leaderEst.Load()), nil
}

// AgreedLeader returns the common leader estimate of all live processes,
// or (-1, false) while they disagree. Lock-free: it scans the published
// estimates.
func (r *Runtime) AgreedLeader() (int, bool) {
	leader := -1
	for _, n := range r.nodes {
		if n.crashed.Load() {
			continue
		}
		l := int(n.leaderEst.Load())
		if leader == -1 {
			leader = l
		} else if leader != l {
			return -1, false
		}
	}
	return leader, leader != -1
}

// WaitForAgreement polls until all live processes agree on a live leader
// or the timeout elapses. It returns at the first agreement it observes,
// which on a fresh cluster is rarely the last: Omega is only eventually
// stable, and the estimates may move again right after.
func (r *Runtime) WaitForAgreement(timeout time.Duration) (int, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return r.WaitForAgreementContext(ctx)
}

// WaitForAgreementContext polls until all live processes agree on a live
// leader or ctx is done. Like WaitForAgreement, it returns at the first
// agreement it observes, not at a settled one.
func (r *Runtime) WaitForAgreementContext(ctx context.Context) (int, bool) {
	ticker := time.NewTicker(r.cfg.StepInterval)
	defer ticker.Stop()
	for {
		if l, ok := r.AgreedLeader(); ok && !r.Crashed(l) {
			return l, true
		}
		select {
		case <-ctx.Done():
			return -1, false
		case <-ticker.C:
		}
	}
}

// N returns the number of processes.
func (r *Runtime) N() int { return len(r.nodes) }
