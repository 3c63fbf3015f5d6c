package load

import (
	"fmt"
	"math"
	"strings"
	"time"

	"omegasm/internal/stats"
)

// Result is one executed request's outcome, produced by either runner.
type Result struct {
	// At is the request's scheduled arrival offset.
	At time.Duration
	// Latency is the time from scheduled arrival to completion, or -1
	// if the request never completed inside the run (it still counts
	// against attainment — an unanswered request missed its SLO).
	Latency time.Duration
	// Read echoes the scheduled request's Read flag.
	Read bool
	// Class echoes the scheduled request's class index.
	Class int
}

// ClassReport aggregates one SLO class's outcomes.
type ClassReport struct {
	// Name echoes the spec class's name.
	Name string
	// SLO echoes the spec class's latency target.
	SLO time.Duration
	// Requests and Completed count scheduled and completed requests.
	Requests, Completed int
	// Attainment is the fraction of scheduled requests that completed
	// within SLO.
	Attainment float64
	// Goodput is within-SLO completions per second of workload duration.
	Goodput float64
	// Mean is the mean completed-request latency.
	Mean time.Duration
	// P50 through P999 are completed-request latency percentiles, from a
	// mergeable log-bucketed histogram (within ~1.6% of the exact
	// sorted-sample values).
	P50, P95, P99, P999 time.Duration
}

// Report is one runner's aggregate view of a workload execution.
type Report struct {
	// Mode names the runner: "sim" or "live".
	Mode string
	// Spec echoes the workload's name.
	Spec string
	// Duration is the spec's arrival window.
	Duration time.Duration
	// Requests and Completed count all classes together.
	Requests, Completed int
	// Throughput is completions per second of workload duration.
	Throughput float64
	// Goodput is within-SLO completions per second of workload duration.
	Goodput float64
	// JainFairness is Jain's index over the classes' weight-normalized
	// goodput: 1 when every class gets goodput proportional to its
	// weight.
	JainFairness float64
	// Classes holds the per-class breakdowns, indexed like Spec.Classes.
	Classes []ClassReport
}

// buildReport aggregates per-request results into per-class histograms
// and SLO accounting. The results slice must use class indexes valid
// for the spec.
func buildReport(mode string, spec *Spec, results []Result) Report {
	rep := Report{
		Mode:     mode,
		Spec:     spec.Name,
		Duration: spec.Duration,
		Classes:  make([]ClassReport, len(spec.Classes)),
	}
	hists := make([]*stats.Histogram, len(spec.Classes))
	good := make([]int, len(spec.Classes))
	for i, c := range spec.Classes {
		rep.Classes[i] = ClassReport{Name: c.Name, SLO: c.SLO}
		hists[i] = &stats.Histogram{}
	}
	secs := spec.Duration.Seconds()
	for _, r := range results {
		cr := &rep.Classes[r.Class]
		cr.Requests++
		rep.Requests++
		if r.Latency < 0 {
			continue
		}
		cr.Completed++
		rep.Completed++
		hists[r.Class].Record(int64(r.Latency))
		if r.Latency <= cr.SLO {
			good[r.Class]++
		}
	}
	shares := make([]float64, len(spec.Classes))
	var goodTotal int
	for i := range rep.Classes {
		cr := &rep.Classes[i]
		h := hists[i]
		if cr.Requests > 0 {
			cr.Attainment = float64(good[i]) / float64(cr.Requests)
		}
		cr.Goodput = float64(good[i]) / secs
		cr.Mean = time.Duration(h.Mean())
		cr.P50 = time.Duration(h.Quantile(50))
		cr.P95 = time.Duration(h.Quantile(95))
		cr.P99 = time.Duration(h.Quantile(99))
		cr.P999 = time.Duration(h.Quantile(99.9))
		shares[i] = cr.Goodput / spec.Classes[i].Weight
		goodTotal += good[i]
	}
	rep.Throughput = float64(rep.Completed) / secs
	rep.Goodput = float64(goodTotal) / secs
	rep.JainFairness = stats.JainFairness(shares)
	return rep
}

// Calibration scores how well one report's percentiles predict
// another's — in practice, the sim report against the live report of
// the same spec.
type Calibration struct {
	// MAPEPct is the mean absolute percentage error over the paired
	// per-class p50/p95/p99/p999 values, in percent.
	MAPEPct float64
	// PearsonR is Pearson's correlation over the same pairs.
	PearsonR float64
	// Pairs counts the percentile pairs compared.
	Pairs int
}

// Calibrate compares the sim report's per-class latency percentiles
// against the live report's. Both reports must come from the same spec
// (same classes in the same order).
func Calibrate(sim, live *Report) Calibration {
	var pred, actual []float64
	n := len(sim.Classes)
	if len(live.Classes) < n {
		n = len(live.Classes)
	}
	for i := 0; i < n; i++ {
		s, l := sim.Classes[i], live.Classes[i]
		for _, p := range [][2]time.Duration{{s.P50, l.P50}, {s.P95, l.P95}, {s.P99, l.P99}, {s.P999, l.P999}} {
			pred = append(pred, float64(p[0]))
			actual = append(actual, float64(p[1]))
		}
	}
	return Calibration{
		MAPEPct:  stats.MAPE(pred, actual),
		PearsonR: stats.PearsonR(pred, actual),
		Pairs:    len(pred),
	}
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %q: %d/%d completed, %.0f/s throughput, %.0f/s goodput, fairness %.3f\n",
		r.Mode, r.Spec, r.Completed, r.Requests, r.Throughput, r.Goodput, r.JainFairness)
	t := &stats.Table{
		Header: []string{"class", "slo", "reqs", "done", "attain", "p50", "p95", "p99", "p999"},
	}
	for _, c := range r.Classes {
		t.AddRow(c.Name, c.SLO.String(), stats.I(c.Requests), stats.I(c.Completed),
			fmt.Sprintf("%.3f", c.Attainment),
			durCell(c.P50), durCell(c.P95), durCell(c.P99), durCell(c.P999))
	}
	b.WriteString(t.Render())
	return b.String()
}

// durCell formats a latency for table cells, in milliseconds.
func durCell(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	if math.IsNaN(ms) {
		return "-"
	}
	return fmt.Sprintf("%.2fms", ms)
}
