package main

import (
	"fmt"
	"reflect"
	"time"

	"omegasm"
	"omegasm/load"
)

// loadSpec is the workload the load subcommand runs against both
// substrates: a Poisson client population over a Zipf-skewed key space,
// split into an interactive SLO class and a batch SLO class.
func loadSpec(dur time.Duration) load.Spec {
	return load.Spec{
		Name:         "mixed-slo",
		Clients:      64,
		Duration:     dur,
		Seed:         7,
		Rate:         2000,
		Process:      load.Poisson,
		Keys:         1024,
		ZipfS:        1.2,
		ReadFraction: 0.5,
		Classes: []load.Class{
			{Name: "interactive", Weight: 0.7, SLO: 20 * time.Millisecond},
			{Name: "batch", Weight: 0.3, SLO: 200 * time.Millisecond},
		},
	}
}

// runLoad is the load subcommand: the same open-loop spec against the
// simulated sharded store (twice, asserting the runs are byte-identical)
// and against a live ShardedKV, then the score of the sim's percentile
// predictions against the live measurements.
func runLoad(args []string) int {
	fs, prof := newFlagSet("load")
	dur := fs.Duration("dur", 2*time.Second, "arrival window of the workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stop, err := prof.start()
	if err != nil {
		return fail(err)
	}
	defer stop()

	const shards, procs = 2, 3
	spec := loadSpec(*dur)

	fmt.Printf("latency under load: %q, %v window, %.0f req/s over %d clients, %d shards x %d procs\n",
		spec.Name, spec.Duration, spec.Rate, spec.Clients, shards, procs)

	simOpts := load.SimOptions{Shards: shards, N: procs}
	simRep, err := load.RunSim(&spec, simOpts)
	if err != nil {
		return fail(fmt.Errorf("sim load run: %w", err))
	}
	simAgain, err := load.RunSim(&spec, simOpts)
	if err != nil {
		return fail(fmt.Errorf("sim load rerun: %w", err))
	}
	if !reflect.DeepEqual(simRep, simAgain) {
		return fail(fmt.Errorf("sim load run is not reproducible:\n%+v\n%+v", simRep, simAgain))
	}
	fmt.Printf("\n%s(repeated run byte-identical)\n", simRep.String())

	liveRep, err := runLoadLive(&spec, shards, procs)
	if err != nil {
		return fail(fmt.Errorf("live load run: %w", err))
	}
	fmt.Printf("\n%s", liveRep.String())

	calib := load.Calibrate(&simRep, &liveRep)
	fmt.Printf("\nsim-vs-live calibration over %d percentile pairs: MAPE %.1f%%, Pearson r %.3f\n",
		calib.Pairs, calib.MAPEPct, calib.PearsonR)
	return 0
}

// runLoadLive brings up a live ShardedKV matching the sim substrate and
// executes the spec against it on the wall clock.
func runLoadLive(spec *load.Spec, shards, procs int) (load.Report, error) {
	skv, err := omegasm.NewShardedKV(
		omegasm.WithShards(shards),
		omegasm.WithN(procs),
		omegasm.WithStepInterval(100*time.Microsecond),
		omegasm.WithTimerUnit(time.Millisecond),
	)
	if err != nil {
		return load.Report{}, err
	}
	if err := skv.Start(); err != nil {
		skv.Close()
		return load.Report{}, err
	}
	defer skv.Close()
	if !skv.WaitForAgreement(20 * time.Second) {
		return load.Report{}, fmt.Errorf("shards did not elect a leader in time")
	}
	return load.RunLive(spec, skv, load.LiveOptions{})
}
