package load_test

import (
	"fmt"
	"time"

	"omegasm/load"
)

// ExampleRunSim runs one write-heavy workload under each arrival process
// against the simulated store. The schedule is a pure function of the
// spec and its seed, and the simulated run a pure function of the
// schedule, so the same spec always reports the same counts.
func ExampleRunSim() {
	for _, p := range []struct {
		process load.Process
		shape   float64
	}{{load.Poisson, 0}, {load.Gamma, 0.5}, {load.Weibull, 0.7}} {
		spec := load.Spec{
			Name:     "bursty",
			Clients:  8,
			Duration: 100 * time.Millisecond,
			Seed:     3,
			Rate:     1000,
			Process:  p.process,
			Shape:    p.shape,
			Keys:     64,
			Classes:  []load.Class{{Name: "all", Weight: 1, SLO: time.Second}},
		}
		rep, err := load.RunSim(&spec, load.SimOptions{})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%v: %d requests, all completed: %v\n", p.process, rep.Requests, rep.Completed == rep.Requests)
	}
	// Output:
	// poisson: 90 requests, all completed: true
	// gamma: 77 requests, all completed: true
	// weibull: 118 requests, all completed: true
}
