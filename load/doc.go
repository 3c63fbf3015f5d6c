// Package load turns a declarative workload specification into
// open-loop request schedules and executes them — identically — against
// the simulated stack (SimKV/SimShardedKV under virtual time) and the
// live stack (KV/ShardedKV on the wall clock), reporting per-SLO-class
// latency percentiles, goodput, attainment and fairness, plus a
// sim-versus-live calibration score.
//
// # Specs
//
// A Spec describes a client population (Clients), an aggregate arrival
// rate (Rate) shaped by a renewal Process (Poisson, Gamma or Weibull
// interarrivals), a key space with optional Zipf skew (Keys, ZipfS), a
// read/write mix (ReadFraction) and a set of SLO Classes with weights
// and latency targets. Both runners expand the spec into one concrete,
// seed-reproducible schedule: the same Spec (including Seed) always
// yields the byte-identical arrival sequence, so the sim and live
// runners replay exactly the same requests.
//
// # Open loop
//
// Both runners are open-loop: each request is issued at its scheduled
// arrival time regardless of whether earlier requests have completed,
// and latency is measured from the scheduled arrival — never from the
// moment a client thread got around to sending. This avoids coordinated
// omission: a server that stalls accrues the stall in every latency
// sample that queued behind it, which is what the tail percentiles are
// for.
//
// # Reports and calibration
//
// Per-request latencies feed mergeable log-bucketed histograms
// (internal/stats.Histogram); a Report carries p50/p95/p99/p999 per
// class, within-SLO attainment and goodput, and Jain's fairness index
// across the classes' weight-normalized goodput. Calibrate compares a
// sim Report against a live Report of the same Spec and scores the
// sim's predictive power with MAPE and Pearson's r over the paired
// per-class percentiles — the observe-predict-calibrate loop that keeps
// virtual-time capacity planning honest.
package load
