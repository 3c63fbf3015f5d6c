package main

import (
	"fmt"
	"slices"

	"omegasm/internal/harness"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

// runOpts carries the run subcommand's flag values.
type runOpts struct {
	algo          string
	n, crashes    int
	seed, horizon int64
	census        bool
}

// parseRun parses the run subcommand: one ad-hoc simulated election run.
// An algorithm the harness does not know is a usage error.
func parseRun(args []string) (func() int, error) {
	var o runOpts
	fs, prof := newFlagSet("run")
	fs.StringVar(&o.algo, "algo", "algo1", "algorithm: algo1|algo2|nwnr|timerfree|baseline|strawman")
	fs.IntVar(&o.n, "n", 5, "number of processes")
	fs.Int64Var(&o.seed, "seed", 1, "run seed")
	fs.Int64Var(&o.horizon, "horizon", 400_000, "virtual-time horizon (ticks)")
	fs.IntVar(&o.crashes, "crashes", 0, "number of processes to crash (never process 0)")
	fs.BoolVar(&o.census, "census", false, "print the full end-of-run register census")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := noArgs(fs); err != nil {
		return nil, err
	}
	if a := harness.Algo(o.algo); a != harness.AlgoStrawman && !slices.Contains(harness.Algos, a) {
		return nil, usage(fmt.Errorf("unknown algorithm %q", o.algo))
	}
	return prof.around(func() int { return runOne(o) }), nil
}

// runOne executes the run and prints its outcome: stabilization, the
// suffix writers and registers, the footprint and optionally the census.
func runOne(o runOpts) int {
	horizon := vclock.Time(o.horizon)
	p := harness.Preset{
		Algo:    harness.Algo(o.algo),
		N:       o.n,
		Seed:    o.seed,
		Horizon: horizon,
		AWBProc: 0,
		Tau1:    horizon / 8,
		Delta:   8,
	}
	if o.crashes > 0 {
		p.Crash = map[int]vclock.Time{}
		for c := 0; c < o.crashes && c+1 < o.n; c++ {
			p.Crash[c+1] = horizon / 3
		}
	}
	out, err := harness.Execute(p)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("algo=%s n=%d seed=%d horizon=%d crashes=%d\n", o.algo, o.n, o.seed, o.horizon, o.crashes)
	fmt.Printf("stabilized=%v leader=%d stabTime=%d end=%d\n",
		out.Stable, out.Leader, out.StabTime, out.EndTime)
	fmt.Printf("leader changes in last quarter: %d\n",
		trace.LeaderChangesAfter(out.Samples, out.EndTime*3/4))
	if out.StableBeforeMid() {
		suffix := out.Suffix()
		fmt.Printf("suffix writers: %v\n", suffix.Writers())
		fmt.Printf("suffix registers written: %v\n", suffix.WrittenRegisters())
	}
	fmt.Printf("shared-memory footprint: %d bits across %d registers\n",
		out.End.TotalBits(), len(out.End.Regs))
	if o.census {
		fmt.Printf("\ncensus:\n%s", out.End)
	}
	return 0
}
