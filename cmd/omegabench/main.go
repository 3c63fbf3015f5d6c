// Command omegabench runs the reproduction's batch jobs and demos, one
// per subcommand:
//
//	omegabench exp [-quick] [-seeds N] [-out FILE] [ID ...]
//	omegabench load [-dur D]
//	omegabench campaign [-seeds N] [-seedbase S] [-out FILE] [-mutate M]
//	           [-expect E] [-scenarios DIR] [-keep K]
//	omegabench run [-algo A] [-n N] [-seed S] [-horizon T] [-crashes C] [-census]
//	omegabench san [-n N] [-disks D] [-crash-disk K] [-crash-proc] [-kv]
//	           [-base D] [-jitter D] [-duration D]
//
// exp regenerates every figure/table of the paper (the fifteen
// experiments of internal/harness), or only the experiments named after
// the flags (`omegabench exp -quick F2 T6`), and prints the measurements
// and claim verdicts; it ends "omegabench: all experiments passed" or
// exits 1. An unknown ID is refused before anything runs. exp is the
// default: bare `omegabench` and a leading flag (`omegabench -quick`)
// mean exp. `omegabench exp F4` replays the Theorem 5 impossibility
// construction (the bounded "obvious fix" thrashes forever under a legal
// AWB schedule while the paper's algorithms stabilize).
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
// run is one ad-hoc simulated election run printed with full detail:
// stabilization, the suffix writers of the paper's Theorem 3 and, with
// -census, every register's end-of-run census.
//
// san runs the paper's motivating deployment live through the public
// API: Omega over a simulated storage-area network of crash-prone disks,
// the replicated key-value store on top, a minority of disks and then the
// elected leader crashed mid-run, and writes still committing after.
//
// Every subcommand accepts -cpuprofile FILE and -memprofile FILE, which
// write pprof profiles covering the whole run. A command line is parsed
// whole — flags, then the positional arguments — before anything runs: a
// usage error exits 2. Performance is measured by the repo benchmark
// (BENCHMARK.json, benchmark/), not here.
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
  omegabench run [-algo A] [-n N] [-seed S] [-horizon T] [-crashes C] [-census]
  omegabench san [-n N] [-disks D] [-crash-disk K] [-crash-proc] [-kv]
             [-base D] [-jitter D] [-duration D]
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

// commands is the subcommand table. Each entry parses a command line —
// flags and positional arguments — into the job it names without starting
// it, and reports a usage error on standard error itself.
var commands = map[string]func(args []string) (job func() int, err error){
	"exp":      parseExp,
	"load":     parseLoad,
	"campaign": parseCampaignJob,
	"run":      parseRun,
	"san":      parseSan,
}

// run executes one subcommand and returns the process exit status: 0 on
// success, 1 when the job failed, 2 when the command line was wrong.
func run(args []string) int {
	cmd, rest := dispatch(args)
	parse, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "omegabench: unknown subcommand %q\n%s", cmd, usageText)
		return 2
	}
	job, err := parse(rest)
	if err != nil {
		return 2
	}
	return job()
}

// usage reports a command-line error the flag package has not reported
// (a bad positional argument or flag combination) and returns it.
func usage(err error) error {
	fmt.Fprintf(os.Stderr, "omegabench: %v\n%s", err, usageText)
	return err
}

// noArgs refuses positional arguments after the flags of a subcommand
// that takes none.
func noArgs(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return usage(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	return nil
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

// around wraps job so that the requested profiles cover it.
func (p *profiles) around(job func() int) func() int {
	return func() int {
		stop, err := p.start()
		if err != nil {
			return fail(err)
		}
		defer stop()
		return job()
	}
}

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

// parseExp parses the exp subcommand: the named experiments of the
// harness (all of them if none is named).
func parseExp(args []string) (func() int, error) {
	fs, prof := newFlagSet("exp")
	quick := fs.Bool("quick", false, "smaller horizons and seed counts")
	seeds := fs.Int("seeds", 0, "seeded repetitions per data point (0: default)")
	out := fs.String("out", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	exps, err := selectExps(fs.Args())
	if err != nil {
		return nil, usage(err)
	}
	return prof.around(func() int {
		return runExp(exps, harness.Config{Quick: *quick, Seeds: *seeds}, *out)
	}), nil
}

// runExp runs exps and prints their tables, verdicts and notes, also to
// the file out if named.
func runExp(exps []harness.Experiment, cfg harness.Config, out string) int {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return fail(err)
		}
		defer func() { reportErr(f.Close()) }()
		w = io.MultiWriter(os.Stdout, f)
	}

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
