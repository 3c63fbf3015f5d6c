// Command omegabench runs the reproduction's three batch jobs, one per
// subcommand:
//
//	omegabench exp [-quick] [-seeds N] [-out FILE] [ID ...]
//	omegabench load [-dur D]
//	omegabench campaign [-seeds N] [-seedbase S] [-out FILE] [-mutate M]
//	           [-expect E] [-scenarios DIR] [-keep K]
//
// exp regenerates every figure/table of the paper (the fifteen
// experiments of internal/harness), or only the experiments named after
// the flags (`omegabench exp -quick F2 T6`), and prints the measurements
// and claim verdicts; it ends "omegabench: all experiments passed" or
// exits 1. An unknown ID is refused before anything runs. exp is the
// default: bare `omegabench` and a leading flag (`omegabench -quick`)
// mean exp.
//
// load runs one declarative open-loop workload spec (Poisson arrivals,
// Zipf keys, mixed SLO classes) twice against the simulated sharded
// store under virtual time — asserting the two runs are byte-identical —
// and once against a live ShardedKV on the wall clock, then prints both
// reports and the sim-vs-live calibration score (MAPE, Pearson's r).
//
// campaign runs the adversarial scenario campaign: a seed sweep over a
// grid of fault configurations (crashes, gray election registers,
// brownouts, open-loop load), every run recorded and fed through the
// omegasm/check linearizability/durability checker, scored (violations
// over near-misses over leader churn and commit stalls) and summarized
// worst-first. -mutate seeds a known bug to prove the checker catches it
// (-expect violations gates CI on that); -expect clean gates nightly
// sweeps; -scenarios regenerates the minimized regression fixtures under
// testdata/scenarios.
//
// Every subcommand accepts -cpuprofile FILE and -memprofile FILE, which
// write pprof profiles covering the whole run. Performance is measured
// by the repo benchmark (BENCHMARK.json, benchmark/), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"omegasm/internal/harness"
)

const usageText = `usage:
  omegabench [exp] [-quick] [-seeds N] [-out FILE] [ID ...]
  omegabench load [-dur D]
  omegabench campaign [-seeds N] [-seedbase S] [-out FILE] [-mutate M]
             [-expect E] [-scenarios DIR] [-keep K]
every subcommand also takes -cpuprofile FILE and -memprofile FILE
`

func main() {
	os.Exit(run(os.Args[1:]))
}

// dispatch splits the command line into a subcommand and its arguments.
// No arguments, or a leading flag, select exp.
func dispatch(args []string) (cmd string, rest []string) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return "exp", args
	}
	return args[0], args[1:]
}

// run executes one subcommand and returns the process exit status: 0 on
// success, 1 when the job failed, 2 when the command line was wrong.
func run(args []string) int {
	cmd, rest := dispatch(args)
	switch cmd {
	case "exp":
		return runExp(rest)
	case "load":
		return runLoad(rest)
	case "campaign":
		return runCampaign(rest)
	}
	fmt.Fprintf(os.Stderr, "omegabench: unknown subcommand %q\n%s", cmd, usageText)
	return 2
}

// newFlagSet returns the flag set of one subcommand with the profiling
// flags every subcommand shares already registered.
func newFlagSet(cmd string) (*flag.FlagSet, *profiles) {
	fs := flag.NewFlagSet("omegabench "+cmd, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usageText, "flags of ", fs.Name(), ":\n")
		fs.PrintDefaults()
	}
	p := &profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile to this file at exit")
	return fs, p
}

// profiles holds the -cpuprofile and -memprofile file names.
type profiles struct{ cpu, mem string }

// start begins the requested profiles; the returned stop writes them out.
func (p *profiles) start() (stop func(), err error) {
	var cpu, mem *os.File
	if p.mem != "" {
		if mem, err = os.Create(p.mem); err != nil {
			return nil, err
		}
	}
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			reportErr(cpu.Close())
		}
		if mem != nil {
			runtime.GC() // flush recent frees so the profile shows live objects
			reportErr(pprof.WriteHeapProfile(mem))
			reportErr(mem.Close())
		}
	}, nil
}

// reportErr prints a non-nil error to standard error.
func reportErr(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "omegabench: %v\n", err)
	}
}

// fail reports err and returns the exit status of a failed job.
func fail(err error) int {
	reportErr(err)
	return 1
}

// selectExps resolves the positional arguments of exp: the named
// experiments in the order given, or the whole index if none is named.
func selectExps(ids []string) ([]harness.Experiment, error) {
	if len(ids) == 0 {
		return harness.All(), nil
	}
	exps := make([]harness.Experiment, len(ids))
	for i, id := range ids {
		e, err := harness.ByID(id)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return exps, nil
}

// runExp is the exp subcommand: the named experiments of the harness
// (all of them if none is named), with tables, verdicts and notes.
func runExp(args []string) int {
	fs, prof := newFlagSet("exp")
	quick := fs.Bool("quick", false, "smaller horizons and seed counts")
	seeds := fs.Int("seeds", 0, "seeded repetitions per data point (0: default)")
	out := fs.String("out", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exps, err := selectExps(fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "omegabench: %v\n%s", err, usageText)
		return 2
	}
	stop, err := prof.start()
	if err != nil {
		return fail(err)
	}
	defer stop()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer func() { reportErr(f.Close()) }()
		w = io.MultiWriter(os.Stdout, f)
	}

	cfg := harness.Config{Quick: *quick, Seeds: *seeds}
	failed := 0
	for _, e := range exps {
		fmt.Fprintf(w, "\n================================================================\n")
		fmt.Fprintf(w, "%s — %s\n", e.ID, e.Title)
		fmt.Fprintf(w, "paper artifact: %s\n", e.Paper)
		fmt.Fprintf(w, "================================================================\n")
		outc, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(w, "ERROR: %v\n", err)
			failed++
			continue
		}
		for _, tbl := range outc.Tables {
			fmt.Fprintf(w, "\n%s", tbl.Render())
		}
		if outc.Report != nil && len(outc.Report.Verdicts) > 0 {
			fmt.Fprintf(w, "\nverdicts:\n%s", outc.Report)
			if !outc.Report.AllOK() {
				failed++
			}
		}
		for _, n := range outc.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
	fmt.Fprintf(w, "\n")
	if failed > 0 {
		fmt.Fprintf(w, "omegabench: %d experiment(s) with failures\n", failed)
		return 1
	}
	fmt.Fprintf(w, "omegabench: all experiments passed\n")
	return 0
}
