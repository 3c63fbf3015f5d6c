package load

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// schedule expands the spec into its concrete arrival sequence, sorted
// by arrival time. The expansion is a pure function of the spec: the
// same spec (Seed included) yields the byte-identical schedule, which
// is what lets the simulated and live runners replay the exact same
// workload.
func (s *Spec) schedule() ([]request, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var zipf *rand.Zipf
	if s.ZipfS > 0 {
		zipf = rand.NewZipf(rng, s.ZipfS, 1, uint64(s.Keys-1))
	}
	cum := make([]float64, len(s.Classes))
	var total float64
	for i, c := range s.Classes {
		total += c.Weight
		cum[i] = total
	}
	perClient := s.Rate / float64(s.Clients)
	var reqs []request
	var val uint16
	// One renewal process per client, expanded in fixed client order
	// from the single seeded rng; the stable sort below merges them
	// without reordering equal arrival times.
	for client := 0; client < s.Clients; client++ {
		at := time.Duration(0)
		for {
			gap := s.interarrival(rng, perClient)
			at += gap
			if at >= s.Duration {
				break
			}
			var key uint16
			if zipf != nil {
				key = uint16(zipf.Uint64())
			} else {
				key = uint16(rng.Intn(s.Keys))
			}
			class := 0
			x := rng.Float64() * total
			for i, c := range cum {
				if x < c {
					class = i
					break
				}
			}
			read := rng.Float64() < s.ReadFraction
			val++
			reqs = append(reqs, request{At: at, Key: key, Val: val, Read: read, Class: class, Client: client})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].At < reqs[j].At })
	return reqs, nil
}

// interarrival draws one gap of a client's renewal process running at
// rate arrivals per second, with mean 1/rate regardless of process
// shape (the shape redistributes variance, not throughput).
func (s *Spec) interarrival(rng *rand.Rand, rate float64) time.Duration {
	var gapSec float64
	switch s.Process {
	case Gamma:
		// Gamma(k) scaled so the mean is k·θ = 1/rate.
		gapSec = gammaSample(rng, s.Shape) / (s.Shape * rate)
	case Weibull:
		// Inverse transform: scale·(-ln U)^(1/k), with the scale chosen
		// so the mean scale·Γ(1+1/k) is 1/rate.
		scale := 1 / (rate * math.Gamma(1+1/s.Shape))
		u := 1 - rng.Float64() // (0, 1]
		gapSec = scale * math.Pow(-math.Log(u), 1/s.Shape)
	default: // Poisson
		gapSec = rng.ExpFloat64() / rate
	}
	return time.Duration(gapSec * float64(time.Second))
}

// gammaSample draws from Gamma(k, 1) by Marsaglia–Tsang squeeze
// rejection, with the standard U^(1/k) boost for k < 1.
func gammaSample(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		u := 1 - rng.Float64() // (0, 1]: the boost must not multiply by zero
		return gammaSample(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
