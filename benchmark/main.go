// Command benchmark is the repository's benchmark: four workloads
// against the public omegasm API, end-to-end metrics from an untraced
// run, a per-layer ladder from a traced one. See README.md.
//
//	go run . -workload san_paced_mix -seed 1 -seconds 30 -trace 0
//	go run . calibrate -runs 6
//	go run . compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	var err error
	switch {
	case len(args) > 0 && args[0] == "calibrate":
		err = calibrateCmd(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = compareCmd(args[1:])
	default:
		err = runCmd(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run; empty runs all four")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 30, "how long one workload measures")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics and out/trace.jsonl; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %v", *seconds)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		var res result
		if *trace != 0 {
			res, err = tracedRun(w, *seed, *seconds, root)
		} else {
			res, err = untracedRun(w, *seed, *seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed the oracle", name, res.Failed, res.Attempted)
		}
	}
	return nil
}

// findRoot returns the repository root: the nearest directory at or above
// the working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func untracedRun(w *workloadDef, seed int64, seconds float64) (result, error) {
	o, err := w.run(env{seed: seed, seconds: seconds})
	if err != nil {
		return result{}, err
	}
	report(w.name, o.problems)
	if !w.gated {
		// No end-to-end face: print the per-layer numbers it is the source of.
		var own []metricDef
		for _, d := range perLayer {
			if d.from == w.name {
				own = append(own, d)
			}
		}
		return assemble(own, o.layer, o.attempted, o.failed), nil
	}
	return assemble(endToEnd, o.endToEnd(), o.attempted, o.failed), nil
}

// tracedRun produces every per-layer metric: the named workload with
// tracing off and then on for a quarter of the time each, the other
// workloads at probe length, and the ladder.
func tracedRun(w *workloadDef, seed int64, seconds float64, root string) (result, error) {
	tr := newTracer()
	values := map[string]sample{}
	var attempted, failed int64
	take := func(name string, o *outcome) {
		report(name, o.problems)
		attempted += o.attempted
		failed += o.failed
		for k, v := range o.layer {
			values[k] = v
		}
	}
	plain, err := w.run(env{seed: seed, seconds: seconds / 4})
	if err != nil {
		return result{}, err
	}
	take(w.name, plain)
	traced, err := w.run(env{seed: seed, seconds: seconds / 4, tr: tr})
	if err != nil {
		return result{}, err
	}
	take(w.name, traced)
	if a, b := plain.e2e["wait_p50_ms"].v, traced.e2e["wait_p50_ms"].v; a > 0 {
		values["trace.overhead_pct"] = sample{100 * (b - a) / a, traced.e2e["wait_p50_ms"].n}
	}
	for i := range workloads {
		if other := &workloads[i]; other != w {
			o, err := other.run(env{seed: seed, seconds: other.probe, tr: tr})
			if err != nil {
				return result{}, fmt.Errorf("probe %s: %w", other.name, err)
			}
			take(other.name, o)
		}
	}
	rungs, err := ladder(env{seed: seed, tr: tr, root: root})
	if err != nil {
		return result{}, err
	}
	for k, v := range rungs {
		values[k] = v
	}
	path, err := tr.write(filepath.Join(root, "benchmark", "out"))
	if err != nil {
		return result{}, err
	}
	fmt.Printf("trace: %d spans in %s\n", len(tr.spans), path)
	fmt.Printf("%-28s %8s %14s %14s\n", "span", "count", "total ms", "self ms")
	for _, r := range tr.selfTimes() {
		fmt.Printf("%-28s %8d %14.3f %14.3f\n", r.name, r.count, durMS(r.total), durMS(r.self))
	}
	return assemble(perLayer, values, attempted, failed), nil
}

// assemble prints the human-readable table and builds the result line.
// A metric the run did not produce is reported as 0 and makes the run
// incorrect: the metric lists are a contract.
func assemble(defs []metricDef, values map[string]sample, attempted, failed int64) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	fmt.Printf("%-32s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		s, ok := values[d.name]
		if !ok {
			fmt.Printf("%-32s %16s %-6s missing\n", d.name, "-", d.unit)
			res.Correct = false
		} else {
			fmt.Printf("%-32s %16.4f %-6s %d\n", d.name, s.v, d.unit, s.n)
		}
		res.Metrics[d.name] = resultValue{Value: s.v, Unit: d.unit}
	}
	return res
}

func report(workload string, problems []string) {
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Printf("ORACLE %s: %s\n", workload, p)
	}
}
