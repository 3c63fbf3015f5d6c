package trace

import "fmt"

// InvariantChecker is an online run monitor: fed every sample of a run,
// it checks at every observation point the properties that must
// hold at all times — not just eventually — and records the first
// violation of each.
//
//   - Validity (paper Section 2.2): every live process's Leader() answer
//     is a process identity in [0, n).
//   - CrashMonotone: a process reported crashed never comes back.
//   - TimeMonotone: observation timestamps strictly increase.
//
// Unlike the eventual properties (checked post-hoc by Stabilization and
// the census verdicts), a violation here indicates a bug in the
// algorithm or the substrate, so the checker is wired into the harness's
// tests rather than into experiment verdicts.
type InvariantChecker struct {
	n          int
	lastT      int64
	wasCrashed []bool
	violations []string
}

// NewInvariantChecker creates a checker for n processes.
func NewInvariantChecker(n int) *InvariantChecker {
	return &InvariantChecker{
		n:          n,
		lastT:      -1,
		wasCrashed: make([]bool, n),
	}
}

// OnSample checks one observation.
func (c *InvariantChecker) OnSample(s Sample) {
	if s.T < c.lastT {
		c.violate("time went backwards: %d after %d", s.T, c.lastT)
	}
	c.lastT = s.T
	if len(s.Leaders) != c.n {
		c.violate("sample width %d, want %d", len(s.Leaders), c.n)
		return
	}
	for p, l := range s.Leaders {
		if l == -1 {
			c.wasCrashed[p] = true
			continue
		}
		if c.wasCrashed[p] {
			c.violate("process %d resurrected at t=%d", p, s.T)
		}
		if l < 0 || l >= c.n {
			c.violate("process %d returned out-of-range leader %d at t=%d", p, l, s.T)
		}
	}
}

func (c *InvariantChecker) violate(format string, args ...interface{}) {
	// Record each first-of-kind violation; cap the log so a broken run
	// does not balloon memory.
	if len(c.violations) < 32 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns the recorded violations, nil if the run was clean.
func (c *InvariantChecker) Violations() []string {
	return append([]string(nil), c.violations...)
}

// OK reports whether no invariant was violated.
func (c *InvariantChecker) OK() bool { return len(c.violations) == 0 }
