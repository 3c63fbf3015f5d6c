package load

import (
	"fmt"
	"time"
)

// Process selects the interarrival distribution of each client's
// renewal process.
type Process int

const (
	// Poisson draws exponential interarrivals — memoryless arrivals, the
	// M/·/· baseline.
	Poisson Process = iota
	// Gamma draws Gamma(Shape)-distributed interarrivals: Shape < 1 is
	// burstier than Poisson, Shape > 1 smoother.
	Gamma
	// Weibull draws Weibull(Shape)-distributed interarrivals: Shape < 1
	// yields heavy-tailed gaps (clustered arrivals), Shape > 1 regular
	// pacing.
	Weibull
)

// String names the process for reports and tables.
func (p Process) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case Gamma:
		return "gamma"
	case Weibull:
		return "weibull"
	}
	return fmt.Sprintf("process(%d)", int(p))
}

// Class is one SLO class of a workload: a share of the request stream
// with its own latency target.
type Class struct {
	// Name labels the class in reports ("interactive", "batch").
	Name string
	// Weight is the class's relative share of requests (> 0; weights
	// need not sum to 1).
	Weight float64
	// SLO is the class's latency target: a request completing within SLO
	// of its scheduled arrival counts toward attainment and goodput.
	SLO time.Duration
}

// Spec is a declarative workload: who arrives, when, for which keys,
// and what latency each class was promised. The same Spec always
// expands to the same schedule (Seed included), so the simulated and
// live runners execute identical request sequences.
type Spec struct {
	// Name labels the workload in reports.
	Name string
	// Clients is the size of the client population; arrivals are the
	// superposition of this many independent renewal processes, each
	// running at Rate/Clients.
	Clients int
	// Duration is how long arrivals keep coming.
	Duration time.Duration
	// Seed makes the schedule reproducible and drives the simulated
	// run's scheduling adversary.
	Seed int64
	// Rate is the aggregate arrival rate in requests per second.
	Rate float64
	// Process shapes each client's interarrival distribution.
	Process Process
	// Shape is the Gamma/Weibull shape parameter k (> 0); ignored for
	// Poisson.
	Shape float64
	// Keys is the key-space size: keys are drawn from [0, Keys). At most
	// 0xFFFE, keeping clear of the store's reserved 0xFFFF row.
	Keys int
	// ZipfS skews key popularity: 0 draws keys uniformly, a value > 1 is
	// the Zipf exponent s (smaller keys hotter, larger s more skewed).
	ZipfS float64
	// ReadFraction is the probability in [0, 1] that a request is a
	// read.
	ReadFraction float64
	// Classes partitions the stream into SLO classes by weight; at least
	// one is required.
	Classes []Class
}

// request is one scheduled arrival of an expanded workload.
type request struct {
	// At is the arrival offset from the run's start.
	At time.Duration
	// Key and Val form the command for a write; reads use Key only.
	Key, Val uint16
	// Read selects a read instead of a replicated write.
	Read bool
	// Class indexes Spec.Classes.
	Class int
	// Client identifies the issuing client (0..Spec.Clients-1). The
	// simulator's session checks (monotone reads per client) key on it.
	Client int
}

// validate reports the first problem with the spec, or nil.
func (s *Spec) validate() error {
	if s.Clients < 1 {
		return fmt.Errorf("load: Clients = %d, need >= 1", s.Clients)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("load: Duration = %v, need > 0", s.Duration)
	}
	if s.Rate <= 0 {
		return fmt.Errorf("load: Rate = %v, need > 0", s.Rate)
	}
	switch s.Process {
	case Poisson:
	case Gamma, Weibull:
		if s.Shape <= 0 {
			return fmt.Errorf("load: %v process needs Shape > 0, got %v", s.Process, s.Shape)
		}
	default:
		return fmt.Errorf("load: unknown Process %d", int(s.Process))
	}
	if s.Keys < 1 || s.Keys > 0xFFFE {
		return fmt.Errorf("load: Keys = %d, need 1..%d (0xFFFF is reserved)", s.Keys, 0xFFFE)
	}
	if s.ZipfS != 0 && s.ZipfS <= 1 {
		return fmt.Errorf("load: ZipfS = %v, need 0 (uniform) or > 1", s.ZipfS)
	}
	if s.ReadFraction < 0 || s.ReadFraction > 1 {
		return fmt.Errorf("load: ReadFraction = %v, need 0..1", s.ReadFraction)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("load: need at least one SLO class")
	}
	for i, c := range s.Classes {
		if c.Weight <= 0 {
			return fmt.Errorf("load: class %d (%q) Weight = %v, need > 0", i, c.Name, c.Weight)
		}
		if c.SLO <= 0 {
			return fmt.Errorf("load: class %d (%q) SLO = %v, need > 0", i, c.Name, c.SLO)
		}
	}
	return nil
}
