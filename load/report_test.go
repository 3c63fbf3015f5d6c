package load

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestBuildReport(t *testing.T) {
	spec := baseSpec()
	spec.Duration = time.Second
	results := []Result{
		{Latency: 5 * time.Millisecond, Class: 0},
		{Latency: 30 * time.Millisecond, Class: 0},  // misses class 0's 20ms SLO
		{Latency: 100 * time.Millisecond, Class: 1}, // within class 1's 200ms SLO
		{Latency: -1, Class: 1},                     // never completed
	}
	rep := buildReport("sim", &spec, results)
	if rep.Requests != 4 || rep.Completed != 3 {
		t.Fatalf("requests/completed = %d/%d", rep.Requests, rep.Completed)
	}
	c0, c1 := rep.Classes[0], rep.Classes[1]
	if c0.Requests != 2 || c0.Completed != 2 || math.Abs(c0.Attainment-0.5) > 1e-9 {
		t.Fatalf("class 0 = %+v", c0)
	}
	if c1.Requests != 2 || c1.Completed != 1 || math.Abs(c1.Attainment-0.5) > 1e-9 {
		t.Fatalf("class 1 = %+v", c1)
	}
	if rep.Throughput != 3 || rep.Goodput != 2 {
		t.Fatalf("throughput/goodput = %v/%v", rep.Throughput, rep.Goodput)
	}
	if c0.P50 < 4*time.Millisecond || c0.P999 > 31*time.Millisecond {
		t.Fatalf("class 0 percentiles: p50=%v p999=%v", c0.P50, c0.P999)
	}
	if rep.JainFairness <= 0 || rep.JainFairness > 1 {
		t.Fatalf("fairness = %v", rep.JainFairness)
	}
	if out := rep.String(); !strings.Contains(out, "interactive") || !strings.Contains(out, "p999") {
		t.Fatalf("String() = %q", out)
	}
}

func TestCalibrate(t *testing.T) {
	spec := baseSpec()
	mk := func(scale float64) *Report {
		rep := &Report{Classes: make([]ClassReport, len(spec.Classes))}
		for i := range rep.Classes {
			base := time.Duration(i+1) * 10 * time.Millisecond
			rep.Classes[i] = ClassReport{
				P50:  time.Duration(scale * float64(base)),
				P95:  time.Duration(scale * float64(2*base)),
				P99:  time.Duration(scale * float64(3*base)),
				P999: time.Duration(scale * float64(4*base)),
			}
		}
		return rep
	}
	self := Calibrate(mk(1), mk(1))
	if self.MAPEPct != 0 || math.Abs(self.PearsonR-1) > 1e-9 || self.Pairs != 8 {
		t.Fatalf("self-calibration = %+v", self)
	}
	off := Calibrate(mk(1.1), mk(1))
	if math.Abs(off.MAPEPct-10) > 1e-6 {
		t.Fatalf("10%%-off MAPE = %v", off.MAPEPct)
	}
	if math.Abs(off.PearsonR-1) > 1e-9 {
		t.Fatalf("proportional reports should correlate perfectly, r = %v", off.PearsonR)
	}
}

// TestRunSimDeterministic runs a small spec against the simulated
// substrate twice: identical reports, and a sane completion picture.
func TestRunSimDeterministic(t *testing.T) {
	spec := baseSpec()
	spec.Clients = 4
	spec.Rate = 200
	spec.Duration = 500 * time.Millisecond
	a, err := RunSim(&spec, SimOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(&spec, SimOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests == 0 {
		t.Fatal("vacuous: no requests ran")
	}
	if a.Completed < a.Requests*9/10 {
		t.Fatalf("only %d/%d completed", a.Completed, a.Requests)
	}
	if !reflectEqualReports(a, b) {
		t.Fatalf("same spec, different sim reports:\n%+v\n%+v", a, b)
	}
}

func reflectEqualReports(a, b Report) bool {
	if a.Mode != b.Mode || a.Requests != b.Requests || a.Completed != b.Completed ||
		a.Throughput != b.Throughput || a.Goodput != b.Goodput || a.JainFairness != b.JainFairness ||
		len(a.Classes) != len(b.Classes) {
		return false
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	return true
}

// TestRunLiveSmokeTarget drives the live runner against an in-process
// fake to check open-loop accounting without a full cluster.
func TestRunLiveSmokeTarget(t *testing.T) {
	spec := baseSpec()
	spec.Clients = 4
	spec.Rate = 400
	spec.Duration = 250 * time.Millisecond
	rep, err := RunLive(&spec, fakeTarget{}, LiveOptions{Drain: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Completed != rep.Requests {
		t.Fatalf("completed %d of %d", rep.Completed, rep.Requests)
	}
	for _, c := range rep.Classes {
		if c.Completed > 0 && c.P50 <= 0 {
			t.Fatalf("class %q p50 = %v", c.Name, c.P50)
		}
	}
}

type fakeTarget struct{}

func (fakeTarget) Put(ctx context.Context, key, val uint16) error { return nil }

func (fakeTarget) Get(key uint16) (uint16, bool) { return 0, false }
