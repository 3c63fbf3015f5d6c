// Command omegarun runs a single ad-hoc simulated run and prints the
// outcome with full detail. (The paper's experiments are `omegabench exp
// [ID ...]`.)
//
// Usage:
//
//	omegarun -algo algo1 -n 8 -seed 7 [-crashes 2] [-census]
package main

import (
	"flag"
	"fmt"
	"os"

	"omegasm/internal/harness"
	"omegasm/internal/trace"
	"omegasm/internal/vclock"
)

func main() {
	os.Exit(run())
}

func run() int {
	algo := flag.String("algo", "algo1", "algorithm: algo1|algo2|nwnr|timerfree|baseline|strawman")
	n := flag.Int("n", 5, "number of processes")
	seed := flag.Int64("seed", 1, "run seed")
	horizon := flag.Int64("horizon", 400_000, "virtual-time horizon (ticks)")
	crashes := flag.Int("crashes", 0, "number of processes to crash (never process 0)")
	census := flag.Bool("census", false, "print the full end-of-run register census")
	flag.Parse()

	p := harness.Preset{
		Algo:    harness.Algo(*algo),
		N:       *n,
		Seed:    *seed,
		Horizon: vclock.Time(*horizon),
		AWBProc: 0,
		Tau1:    vclock.Time(*horizon) / 8,
		Delta:   8,
	}
	if *crashes > 0 {
		p.Crash = map[int]vclock.Time{}
		for c := 0; c < *crashes && c+1 < *n; c++ {
			p.Crash[c+1] = vclock.Time(*horizon) / 3
		}
	}
	out, err := harness.Execute(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "omegarun: %v\n", err)
		return 1
	}
	fmt.Printf("algo=%s n=%d seed=%d horizon=%d crashes=%d\n", *algo, *n, *seed, *horizon, *crashes)
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
	if *census {
		fmt.Printf("\ncensus:\n%s", out.End)
	}
	return 0
}
