package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"omegasm"
)

// kv_failover_open: the paper's own metric, time without service after
// the leader fails. Each episode builds a fresh three-process store on
// atomic registers, sends one Put every 2ms on schedule for a second,
// and crashes the agreed leader 300ms in. Requests stay on schedule
// through the fault, so writes due while nobody leads are counted.
const (
	foSlices     = 3
	foEpisodeDur = time.Second
	foGap        = 2 * time.Millisecond
	foCrashAt    = 300 * time.Millisecond
	foWarmPuts   = 200
	foSettle     = 100 * time.Millisecond
	foSLO        = time.Second
	foKeyBase    = 1000 // episode writes use distinct keys from here up
)

// foEpisode is what one episode measured.
type foEpisode struct {
	setup    time.Duration
	outage   time.Duration // crash call to first completed Put due after it
	lateUS   []float64
	ops      int64
	allocs   uint64
	applied  int // commands the store applied during the open loop
	acked    int // writes acknowledged during the open loop
	detect   time.Duration
	reagree  time.Duration
	dark     time.Duration
	changes  int
	observed bool // the poller's decomposition is filled in
}

func runFailover(e env) (*outcome, error) {
	o := newOutcome()
	var sched scheduleHash
	slices := e.sliceCount(foSlices)
	perSlice := max(int(e.seconds/float64(slices)/foEpisodeDur.Seconds()), 1)
	var outages, late, detect, reagree, resume, dark, changes []float64
	var applied, acked int
	for s := 0; s < slices; s++ {
		var setup time.Duration
		for k := 0; k < perSlice; k++ {
			id := int64(s*perSlice + k)
			last := s == slices-1 && k == perSlice-1
			ep, err := failoverEpisode(e, o, &sched, id, last)
			if err != nil {
				return nil, err
			}
			setup += ep.setup
			outages = append(outages, durMS(ep.outage))
			late = append(late, ep.lateUS...)
			o.ops += ep.ops
			o.allocs += ep.allocs
			applied += ep.applied
			acked += ep.acked
			if ep.observed {
				detect = append(detect, durMS(ep.detect))
				reagree = append(reagree, durMS(ep.reagree-ep.detect))
				resume = append(resume, durMS(ep.outage-ep.reagree))
				dark = append(dark, durMS(ep.dark))
				changes = append(changes, float64(ep.changes))
			}
		}
		o.setups = append(o.setups, setup.Seconds())
	}
	o.schedule = sched.h
	n := int64(len(outages))
	o.e2e["wait_p50_ms"] = sample{quantile(outages, 0.5), n}
	o.layer["failover.outage_p90_ms"] = sample{quantile(outages, 0.9), n}
	o.layer["load.failover_late_p99_us"] = sample{quantile(late, 0.99), int64(len(late))}
	if applied > 0 {
		o.layer["consensus.dup_commit_share"] = sample{float64(applied-acked) / float64(applied), int64(applied)}
	}
	if len(detect) > 0 {
		m := int64(len(detect))
		o.layer["core.detect_ms"] = sample{median(detect), m}
		o.layer["rt.reagree_ms"] = sample{median(reagree), m}
		o.layer["kv.resume_ms"] = sample{median(resume), m}
		o.layer["lease.dark_ms"] = sample{median(dark), m}
		o.layer["core.leader_changes_per_crash"] = sample{quantile(changes, 0.5), m}
	}
	return o, nil
}

func failoverEpisode(e env, o *outcome, sched *scheduleHash, id int64, last bool) (*foEpisode, error) {
	ep := &foEpisode{}
	rng := rand.New(rand.NewSource(e.seed*104729 + id))
	root := e.tr.begin("failover.episode", 0, id)
	defer e.tr.end(root)

	t0 := time.Now()
	sp := e.tr.begin("omegasm.New+Start", root, id)
	c, err := omegasm.New(omegasm.WithN(3))
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	defer c.Stop()
	e.tr.end(sp)
	sp = e.tr.begin("Cluster.WaitForAgreement", root, id)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		return nil, fmt.Errorf("failover: no agreed leader within 10s")
	}
	e.tr.end(sp)
	sp = e.tr.begin("omegasm.NewKV", root, id)
	kv, err := omegasm.NewKV(c)
	if err != nil {
		return nil, err
	}
	defer kv.Close()
	e.tr.end(sp)
	ctx := context.Background()
	sp = e.tr.begin("failover.warm", root, id)
	for i := 0; i < foWarmPuts; i++ {
		if err := kv.Put(ctx, uint16(i), uint16(i)); err != nil {
			return nil, fmt.Errorf("failover: warm put: %w", err)
		}
	}
	time.Sleep(foSettle)
	e.tr.end(sp)
	leader, ok := c.WaitForAgreement(10 * time.Second)
	if !ok {
		return nil, fmt.Errorf("failover: agreement lost before the measured window")
	}
	ep.setup = time.Since(t0)

	arrivals := int(foEpisodeDur / foGap)
	vals := make([]uint16, arrivals)
	for i := range vals {
		vals[i] = uint16(rng.Intn(1<<16 - 1))
		sched.add(uint64(i), uint64(vals[i]))
	}
	ackedAt := make([]bool, arrivals)
	applied0 := kv.Applied()
	m0 := mallocs()
	start := time.Now()
	var crashT time.Time
	var obs *foObserver
	var firstAfter time.Time
	for i := 0; i < arrivals; i++ {
		due := start.Add(time.Duration(i) * foGap)
		sleepUntil(due)
		if crashT.IsZero() && due.Sub(start) >= foCrashAt {
			if e.tr != nil {
				obs = observeFailover(c, kv, leader)
			}
			// Omega is only eventually stable: crash whoever leads now,
			// not whoever led when set-up ended.
			if l, ok := c.AgreedLeader(); ok && !c.Crashed(l) {
				leader = l
			}
			crashT = time.Now()
			if err := c.Crash(leader); err != nil {
				return nil, fmt.Errorf("failover: crash: %w", err)
			}
			e.tr.add("Cluster.Crash", root, id, crashT, time.Now())
		}
		sent := time.Now()
		opCtx, cancel := context.WithDeadline(ctx, due.Add(foSLO))
		err := kv.Put(opCtx, uint16(foKeyBase+i), vals[i])
		done := time.Now()
		cancel()
		o.attempted++
		ep.lateUS = append(ep.lateUS, durUS(sent.Sub(due)))
		if err != nil {
			o.fail("failover episode %d arrival %d: %v", id, i, err)
			continue
		}
		ackedAt[i] = true
		ep.acked++
		if !crashT.IsZero() && firstAfter.IsZero() {
			firstAfter = done
			e.tr.add("failover.first-commit", root, id, crashT, done)
		}
	}
	ep.ops = int64(arrivals)
	ep.allocs = mallocs() - m0
	ep.applied = kv.Applied() - applied0
	if firstAfter.IsZero() {
		return nil, fmt.Errorf("failover: episode %d: no write completed after the crash", id)
	}
	ep.outage = firstAfter.Sub(crashT)
	if obs != nil {
		obs.stop()
		obs.fill(ep, crashT)
		e.tr.add("core.detect", root, id, crashT, crashT.Add(ep.detect))
		e.tr.add("rt.reagree", root, id, crashT.Add(ep.detect), crashT.Add(ep.reagree))
		e.tr.add("kv.resume", root, id, crashT.Add(ep.reagree), firstAfter)
	}

	// No acknowledged write may be lost: read every one back through the log.
	sp = e.tr.begin("failover.read-back", root, id)
	for i, ok := range ackedAt {
		if !ok {
			continue
		}
		o.attempted++
		got, found, err := kv.Read(ctx, uint16(foKeyBase+i), omegasm.ReadQuorum)
		if err != nil || !found || got != vals[i] {
			o.fail("failover episode %d: acknowledged write %d reads back %d,%v,%v, want %d", id, i, got, found, err, vals[i])
		}
	}
	e.tr.end(sp)
	if last {
		o.heapMB = liveHeapMB()
	}
	return ep, nil
}

// foObserver samples the cluster after a crash, on a traced run only, to
// split the outage into detection, re-agreement and resume. It sleeps
// between samples, so its resolution is the host's timer granularity
// (about 1ms here); a spinning poller would take a processor from the
// store it is watching.
type foObserver struct {
	quit chan struct{}
	wg   sync.WaitGroup

	detected, reagreed, leased time.Time
	changes                    int
}

func observeFailover(c *omegasm.Cluster, kv *omegasm.KV, crashed int) *foObserver {
	ob := &foObserver{quit: make(chan struct{})}
	events, cancel := c.Watch(200 * time.Microsecond)
	ob.wg.Add(2)
	go func() {
		defer ob.wg.Done()
		// The first event reports the state at subscription; after it,
		// every event naming a new agreed leader is one leader change.
		last := -1
		for ev := range events {
			if ev.Agreed && ev.Leader != last {
				if last >= 0 {
					ob.changes++
				}
				last = ev.Leader
			}
		}
	}()
	go func() {
		defer ob.wg.Done()
		defer cancel()
		started := false // the crash has been observed by the runtime
		for {
			select {
			case <-ob.quit:
				return
			default:
			}
			now := time.Now()
			if !started {
				started = c.Crashed(crashed)
			} else {
				if ob.detected.IsZero() {
					for i := 0; i < c.N(); i++ {
						if i == crashed {
							continue
						}
						if l, err := c.Leader(i); err == nil && l != crashed {
							ob.detected = now
							break
						}
					}
				}
				if ob.reagreed.IsZero() {
					if l, ok := c.AgreedLeader(); ok && l != crashed && !c.Crashed(l) {
						ob.reagreed = now
					}
				}
				if ob.leased.IsZero() {
					if h, ok := kv.LeaseHolder(); ok && h != crashed {
						ob.leased = now
					}
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	return ob
}

// stop ends both goroutines and waits for them; changes is safe to read
// afterwards.
func (ob *foObserver) stop() {
	close(ob.quit)
	ob.wg.Wait()
}

// fill copies the observations into ep. The first commit after the crash
// bounds all three: an observation the poller did not get to before then
// is set to it.
func (ob *foObserver) fill(ep *foEpisode, crashT time.Time) {
	since := func(t time.Time) time.Duration {
		if t.IsZero() || t.Sub(crashT) > ep.outage {
			return ep.outage
		}
		return max(t.Sub(crashT), 0)
	}
	ep.detect = since(ob.detected)
	ep.reagree = max(since(ob.reagreed), ep.detect)
	ep.dark = since(ob.leased)
	ep.changes = ob.changes
	ep.observed = true
}
