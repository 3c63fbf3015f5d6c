package load

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

func baseSpec() Spec {
	return Spec{
		Name:         "t",
		Clients:      8,
		Duration:     2 * time.Second,
		Seed:         42,
		Rate:         2000,
		Process:      Poisson,
		Keys:         256,
		ReadFraction: 0.5,
		Classes: []Class{
			{Name: "interactive", Weight: 0.7, SLO: 20 * time.Millisecond},
			{Name: "batch", Weight: 0.3, SLO: 200 * time.Millisecond},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no clients", func(s *Spec) { s.Clients = 0 }},
		{"no duration", func(s *Spec) { s.Duration = 0 }},
		{"no rate", func(s *Spec) { s.Rate = 0 }},
		{"gamma without shape", func(s *Spec) { s.Process = Gamma }},
		{"weibull without shape", func(s *Spec) { s.Process = Weibull }},
		{"unknown process", func(s *Spec) { s.Process = Process(99) }},
		{"no keys", func(s *Spec) { s.Keys = 0 }},
		{"reserved keys", func(s *Spec) { s.Keys = 0xFFFF }},
		{"zipf s too small", func(s *Spec) { s.ZipfS = 1 }},
		{"read fraction", func(s *Spec) { s.ReadFraction = 1.5 }},
		{"no classes", func(s *Spec) { s.Classes = nil }},
		{"zero weight", func(s *Spec) { s.Classes[0].Weight = 0 }},
		{"zero slo", func(s *Spec) { s.Classes[1].SLO = 0 }},
	}
	for _, tc := range cases {
		s := baseSpec()
		tc.mut(&s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, s)
		}
	}
	s := baseSpec()
	if err := s.validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
}

// TestScheduleDeterministic is the reproducibility criterion: a fixed
// seed expands to the byte-identical request sequence, and a different
// seed to a different one.
func TestScheduleDeterministic(t *testing.T) {
	for _, proc := range []Process{Poisson, Gamma, Weibull} {
		s := baseSpec()
		s.Process = proc
		s.Shape = 0.8
		s.ZipfS = 1.2
		a, err := s.schedule()
		if err != nil {
			t.Fatalf("%v: %v", proc, err)
		}
		b, err := s.schedule()
		if err != nil {
			t.Fatalf("%v: %v", proc, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: same seed, different schedules", proc)
		}
		if len(a) == 0 {
			t.Fatalf("%v: empty schedule", proc)
		}
		s.Seed++
		c, err := s.schedule()
		if err != nil {
			t.Fatalf("%v: %v", proc, err)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%v: different seeds, identical schedules", proc)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	s := baseSpec()
	reqs, err := s.schedule()
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].At < reqs[j].At }) {
		t.Fatal("schedule not sorted by arrival")
	}
	reads, classCount := 0, make([]int, len(s.Classes))
	for _, r := range reqs {
		if r.At < 0 || r.At >= s.Duration {
			t.Fatalf("arrival %v outside [0, %v)", r.At, s.Duration)
		}
		if int(r.Key) >= s.Keys {
			t.Fatalf("key %d outside [0, %d)", r.Key, s.Keys)
		}
		if r.Class < 0 || r.Class >= len(s.Classes) {
			t.Fatalf("class %d out of range", r.Class)
		}
		if r.Read {
			reads++
		}
		classCount[r.Class]++
	}
	n := float64(len(reqs))
	if f := float64(reads) / n; math.Abs(f-s.ReadFraction) > 0.05 {
		t.Errorf("read fraction %.3f, want ~%.2f", f, s.ReadFraction)
	}
	if f := float64(classCount[0]) / n; math.Abs(f-0.7) > 0.05 {
		t.Errorf("class 0 share %.3f, want ~0.7", f)
	}
}

// TestScheduleArrivalRate checks each process hits the configured
// aggregate rate: the shape parameter redistributes variance without
// changing the mean.
func TestScheduleArrivalRate(t *testing.T) {
	for _, tc := range []struct {
		proc  Process
		shape float64
	}{
		{Poisson, 0}, {Gamma, 0.5}, {Gamma, 4}, {Weibull, 0.7}, {Weibull, 2},
	} {
		s := baseSpec()
		s.Process = tc.proc
		s.Shape = tc.shape
		s.Duration = 10 * time.Second
		reqs, err := s.schedule()
		if err != nil {
			t.Fatalf("%v(%v): %v", tc.proc, tc.shape, err)
		}
		got := float64(len(reqs)) / s.Duration.Seconds()
		if math.Abs(got-s.Rate)/s.Rate > 0.05 {
			t.Errorf("%v(shape %v): rate %.0f/s, want ~%.0f/s", tc.proc, tc.shape, got, s.Rate)
		}
	}
}

// TestScheduleBurstiness checks the shape parameter has its documented
// effect on interarrival variability: the coefficient of variation of a
// single client's gaps is ~1 for Poisson, above for Gamma shape < 1,
// below for Gamma shape > 1.
func TestScheduleBurstiness(t *testing.T) {
	cv := func(proc Process, shape float64) float64 {
		s := baseSpec()
		s.Clients = 1
		s.Rate = 2000
		s.Duration = 20 * time.Second
		s.Process = proc
		s.Shape = shape
		reqs, err := s.schedule()
		if err != nil {
			t.Fatalf("%v(%v): %v", proc, shape, err)
		}
		var gaps []float64
		for i := 1; i < len(reqs); i++ {
			gaps = append(gaps, (reqs[i].At - reqs[i-1].At).Seconds())
		}
		var mean float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		var ss float64
		for _, g := range gaps {
			d := g - mean
			ss += d * d
		}
		return math.Sqrt(ss/float64(len(gaps))) / mean
	}
	if c := cv(Poisson, 0); math.Abs(c-1) > 0.1 {
		t.Errorf("Poisson cv = %.3f, want ~1", c)
	}
	if c := cv(Gamma, 0.25); c < 1.5 {
		t.Errorf("Gamma(0.25) cv = %.3f, want bursty (> 1.5)", c)
	}
	if c := cv(Gamma, 4); c > 0.7 {
		t.Errorf("Gamma(4) cv = %.3f, want smooth (< 0.7)", c)
	}
	if c := cv(Weibull, 0.5); c < 1.5 {
		t.Errorf("Weibull(0.5) cv = %.3f, want bursty (> 1.5)", c)
	}
}

// TestScheduleZipfSkew checks Zipf key selection concentrates load: the
// hottest key of a skewed draw takes a large share, while the uniform
// draw spreads it thin.
func TestScheduleZipfSkew(t *testing.T) {
	share := func(zipfS float64) float64 {
		s := baseSpec()
		s.ZipfS = zipfS
		s.Duration = 10 * time.Second
		reqs, err := s.schedule()
		if err != nil {
			t.Fatal(err)
		}
		counts := map[uint16]int{}
		for _, r := range reqs {
			counts[r.Key]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(len(reqs))
	}
	if hot := share(1.5); hot < 0.2 {
		t.Errorf("Zipf(1.5) hottest-key share = %.3f, want > 0.2", hot)
	}
	if flat := share(0); flat > 0.05 {
		t.Errorf("uniform hottest-key share = %.3f, want < 0.05", flat)
	}
}
