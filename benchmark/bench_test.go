package main

import (
	"path/filepath"
	"regexp"
	"testing"
)

// These tests assert names, shapes and determinism, never a timing, so
// they cannot flake on a busy host.

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join(".."))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesRunner: every name in BENCHMARK.json is one the
// runner emits and the other way round, with the same unit and direction.
func TestBenchmarkFileMatchesRunner(t *testing.T) {
	bf := loadBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, name, unit, better string, i int) {
		t.Helper()
		if i >= len(defs) {
			t.Errorf("%s[%d] %q is not in the runner's list", kind, i, name)
			return
		}
		d := defs[i]
		if d.name != name || d.unit != unit || d.better != better {
			t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the runner %s/%s/%s", kind, i, name, unit, better, d.name, d.unit, d.better)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("%s[%d] %q: malformed name, unit %q or direction %q", kind, i, name, unit, better)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the runner %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		check("end_to_end", endToEnd, m.Name, m.Unit, m.Better, i)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		check("per_layer", perLayer, m.Name, m.Unit, m.Better, i)
	}
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Errorf("too many metrics for the contract: %d end-to-end, %d per-layer", len(bf.EndToEnd), len(bf.PerLayer))
	}

	var gated []workloadDef
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner gates %d", len(bf.Workloads), len(gated))
	}
	for i, w := range bf.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the runner %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: malformed or duplicate name, or why over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}

// TestEveryMetricHasASource: a per-layer metric names the run that
// produces it, and that run exists.
func TestEveryMetricHasASource(t *testing.T) {
	for _, d := range perLayer {
		if d.from != "ladder" && d.from != "run" && workloadByName(d.from) == nil {
			t.Errorf("%s: unknown source %q", d.name, d.from)
		}
		if d.what == "" {
			t.Errorf("%s: no definition", d.name)
		}
	}
}

// short runs one workload at its smallest size.
func short(t *testing.T, name string, seed int64) *outcome {
	t.Helper()
	o, err := workloadByName(name).run(env{seed: seed, seconds: 0.3, slices: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if o.failed != 0 {
		t.Fatalf("%s: oracle breached: %v", name, o.problems)
	}
	return o
}

// TestWorkloadsEmitTheirMetrics: each workload produces every end-to-end
// value and every per-layer value it is the source of, and a seed fixes
// its generated inputs -- and, on the virtual clock, its results.
func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := short(t, w.name, 11), short(t, w.name, 11), short(t, w.name, 12)
			if a.schedule != b.schedule {
				t.Errorf("same seed, different schedule hash: %x vs %x", a.schedule, b.schedule)
			}
			if a.schedule == c.schedule {
				t.Errorf("different seeds, same schedule hash %x", a.schedule)
			}
			if w.gated {
				got := a.endToEnd()
				for _, d := range endToEnd {
					if _, ok := got[d.name]; !ok {
						t.Errorf("end-to-end metric %s not emitted", d.name)
					}
				}
				if len(got) != len(endToEnd) {
					t.Errorf("%d end-to-end values emitted, %d defined", len(got), len(endToEnd))
				}
			}
			for _, d := range perLayer {
				if d.from != w.name {
					continue
				}
				va, ok := a.layer[d.name]
				if !ok {
					// The failover decomposition needs the traced run's poller.
					if w.name == wFailover && d.name != "load.failover_late_p99_us" && d.name != "consensus.dup_commit_share" && d.name != "failover.outage_p90_ms" {
						continue
					}
					t.Errorf("per-layer metric %s not emitted", d.name)
				}
				if w.name == wSim && d.unit == "count" && va != b.layer[d.name] {
					t.Errorf("%s: same seed gave %v then %v", d.name, va.v, b.layer[d.name].v)
				}
			}
			for k := range a.layer {
				found := false
				for _, d := range perLayer {
					found = found || (d.name == k && d.from == w.name)
				}
				if !found {
					t.Errorf("%s emits %s, which the per-layer list does not attribute to it", w.name, k)
				}
			}
		})
	}
}

func TestPyQuartilesMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	got := pyQuartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	want := [3]float64{3.5, 24, 160}
	if got != want {
		t.Fatalf("quartiles %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 85, 115, 95}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   verdict
	}{
		{"unchanged", base, base, false, same},
		{"slower beyond bound", base, shift(1.2), false, worse},
		{"faster", base, shift(0.8), false, better},
		{"higher is better, dropped", base, shift(0.8), true, worse},
		{"within bound", base, shift(1.03), false, same},
		{"spread wider than bound", noisy, shift(1.02), false, unresolved},
	} {
		if got := judge(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
