package omegasm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"omegasm/internal/engine"
	"omegasm/internal/vclock"
)

// Fleet runs many independent Omega clusters concurrently — the
// multi-tenant deployment shape, where each cluster elects a leader for
// one replicated object — and answers Leader queries from a read-mostly
// fast path: a background refresher folds each cluster's agreement state
// into one packed atomic word, so a query is a single atomic load
// regardless of cluster size or query rate.
type Fleet struct {
	clusters []*Cluster
	// view[i] is cluster i's packed agreement word, see packView.
	view []atomic.Uint64

	mu      sync.Mutex
	started bool
	stopped bool
	// eng hosts the view refresher as one fixed-cadence machine.
	eng *engine.Live
}

// refreshInterval is how often a Fleet folds each cluster's agreement
// state into its cached view.
const refreshInterval = engine.DefaultStepInterval

// packView encodes an AgreedLeader result in one word: bit 63 set when the
// cluster's live processes agree, low bits the leader id.
func packView(leader int, agreed bool) uint64 {
	if !agreed {
		return 0
	}
	return 1<<63 | uint64(leader)
}

func unpackView(w uint64) (leader int, agreed bool) {
	if w&(1<<63) == 0 {
		return -1, false
	}
	return int(w &^ (1 << 63)), true
}

// NewFleet validates the options and builds a stopped Fleet; call Start
// to run it. Cluster options (WithN, WithAlgorithm, WithSAN, ...) apply
// to every member; the fleet-only WithClusters sets how many members
// there are. SAN-backed members get a disk farm each (it is not shared
// with their neighbors).
func NewFleet(opts ...Option) (*Fleet, error) {
	fs := newSettings()
	if err := fs.apply(opts); err != nil {
		return nil, err
	}
	if err := fs.rejectShardedOptions(); err != nil {
		return nil, err
	}
	return newFleetFromSettings(fs, opts)
}

// newFleetFromSettings builds a Fleet from resolved fleet-level settings,
// re-resolving the option list per member (shared by NewFleet and
// NewShardedKV, which fixes the cluster count to its shard count first).
func newFleetFromSettings(fs *settings, opts []Option) (*Fleet, error) {
	f := &Fleet{
		view: make([]atomic.Uint64, fs.clusters),
		eng:  engine.NewLive(engine.LiveConfig{}),
	}
	for i := 0; i < fs.clusters; i++ {
		// Re-resolve the full option list per member so each cluster gets
		// fresh state (its own substrate instance).
		cs := newSettings()
		if err := cs.apply(opts); err != nil {
			return nil, err
		}
		c, err := newCluster(cs)
		if err != nil {
			return nil, fmt.Errorf("omegasm: fleet cluster %d: %w", i, err)
		}
		f.clusters = append(f.clusters, c)
	}
	return f, nil
}

// Start launches every cluster and the view refresher. It may be called
// once; a stopped fleet cannot be restarted.
func (f *Fleet) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return fmt.Errorf("omegasm: fleet already stopped")
	}
	if f.started {
		return fmt.Errorf("omegasm: fleet already started")
	}
	f.started = true
	for i, c := range f.clusters {
		if err := c.Start(); err != nil {
			for _, prev := range f.clusters[:i] {
				prev.Stop()
			}
			return err
		}
	}
	interval := int64(refreshInterval)
	f.eng.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint {
		for i := range f.clusters {
			f.refresh(i)
		}
		return engine.At(now + interval)
	}), engine.FirstStepAt(interval))
	return f.eng.Start()
}

// refresh folds cluster i's live agreement state into the cached view.
func (f *Fleet) refresh(i int) {
	leader, agreed := f.clusters[i].AgreedLeader()
	f.view[i].Store(packView(leader, agreed))
}

// Stop halts the refresher and every cluster. Idempotent, and safe to
// call on a fleet that was never started.
func (f *Fleet) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return
	}
	f.stopped = true
	f.eng.Stop()
	for _, c := range f.clusters {
		c.Stop()
	}
}

// Leader returns cluster i's agreed leader from the cached view: a single
// atomic load, safe to call at arbitrary rates from any number of
// goroutines. ok is false while the cluster's live processes disagree (or
// before the first refresh); the answer is at most refreshInterval
// (200us) stale.
func (f *Fleet) Leader(i int) (leader int, ok bool) {
	if i < 0 || i >= len(f.clusters) {
		return -1, false
	}
	return unpackView(f.view[i].Load())
}

// crash crashes process p of cluster i, and refreshes that cluster's view
// immediately so queries stop naming a dead leader as soon as the
// survivors re-elect — the fault injection of the fleet and sharded-store
// tests. It errors on an out-of-range cluster or process index, and on a
// fleet that has already been stopped (whose processes are all down;
// crashing one would be meaningless).
func (f *Fleet) crash(i, p int) error {
	f.mu.Lock()
	stopped := f.stopped
	f.mu.Unlock()
	if stopped {
		return fmt.Errorf("omegasm: fleet already stopped")
	}
	if i < 0 || i >= len(f.clusters) {
		return fmt.Errorf("omegasm: no cluster %d", i)
	}
	if err := f.clusters[i].Crash(p); err != nil {
		return err
	}
	f.refresh(i)
	return nil
}

// WaitForAgreement blocks until every cluster's live processes agree on a
// live leader (refreshing the cached view as each cluster settles), or
// the timeout elapses. All clusters are waited on in parallel, so the
// timeout bounds total wall time: the slowest cluster never eats into the
// others' budget, and a late cluster is detected within one timeout no
// matter how many siblings settle first. It returns the per-cluster
// leaders and whether all clusters agreed in time. WaitForAgreement is
// safe to race with Stop: a stopped fleet's processes are all down and
// report no agreement, so the call returns ok == false within the
// timeout instead of blocking forever.
func (f *Fleet) WaitForAgreement(timeout time.Duration) ([]int, bool) {
	leaders := make([]int, len(f.clusters))
	agreed := make([]bool, len(f.clusters))
	var wg sync.WaitGroup
	for i, c := range f.clusters {
		wg.Add(1)
		go func(i int, c *Cluster) {
			defer wg.Done()
			l, ok := c.WaitForAgreement(timeout)
			if ok {
				leaders[i], agreed[i] = l, true
				f.refresh(i)
			}
		}(i, c)
	}
	wg.Wait()
	for _, ok := range agreed {
		if !ok {
			return leaders, false
		}
	}
	return leaders, true
}
