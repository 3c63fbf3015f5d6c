package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json; the key set is fixed by the
// driver's contract, so nothing else may be stored there.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runSet is what calibrate writes and compare reads: every end-to-end
// value of every run of one commit, with the environment they ran in.
type runSet struct {
	Env  fingerprint                     `json:"env"`
	Runs map[string]map[string][]float64 `json:"runs"` // workload -> metric -> one value per run
}

// fingerprint says where and with what a run set was measured.
type fingerprint struct {
	Go         string         `json:"go"`
	CPU        string         `json:"cpu"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	Commit     string         `json:"commit"`
	Seconds    float64        `json:"seconds"`
	When       string         `json:"when"`
}

func takeFingerprint(root string, seconds float64) fingerprint {
	fp := fingerprint{
		Go: runtime.Version(), CPU: "unknown", NProc: runtime.NumCPU(), Commit: "unknown",
		GOMAXPROCS: map[string]int{}, Seconds: seconds, When: time.Now().UTC().Format(time.RFC3339),
	}
	for _, w := range workloads {
		fp.GOMAXPROCS[w.name] = runtime.NumCPU()
	}
	fp.GOMAXPROCS[wClosed] = 1
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// pyQuartiles is Python's statistics.quantiles(values, n=4), the
// exclusive method the driver uses.
func pyQuartiles(values []float64) [3]float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return q
}

// spread is the inter-quartile range as a share of the median.
func spread(values []float64) float64 {
	q := pyQuartiles(values)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

const (
	boundFloor = 0.05
	boundCap   = 0.10
	// setupBound is fixed, not calibrated: set-up gets the largest bound
	// the contract allows, because its spread is exempt but its median is
	// not, and a quarter-second of processor-bound building moves with the
	// host.
	setupBound = 0.25
	// okShareBound: any failed operation is a regression; the contract
	// wants a positive share, so this is one operation in a thousand.
	okShareBound = 0.001
)

// ruleBound applies the bound rule to an observed spread: twice the
// inter-quartile range, at least 5% and at most 10%. The bound is never
// widened past the cap: a metric whose spread itself exceeds it does not
// fit and is to be demoted or its slices lengthened; one between half
// the cap and the cap fits, with less than the twofold margin.
func ruleBound(metric string, observed float64) (bound float64, fits bool) {
	switch metric {
	case "setup_s":
		return setupBound, true
	case "ok_share":
		return okShareBound, observed == 0
	}
	b := math.Min(math.Max(boundFloor, 2*observed), boundCap)
	return math.Ceil(b*100) / 100, observed <= boundCap
}

func calibrateCmd(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	runs := fs.Int("runs", 6, "runs per workload, at least 6")
	seconds := fs.Float64("seconds", 0, "seconds per run; 0 takes run_seconds from BENCHMARK.json")
	seedBase := fs.Int64("seedbase", 1, "run i uses seed seedbase+i")
	out := fs.String("o", "", "write the run set here (default benchmark/out/runs-<time>.json)")
	write := fs.Bool("write", false, "write the resulting bounds into BENCHMARK.json and the fingerprint into benchmark/calibration.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 6 {
		return fmt.Errorf("calibrate: need at least 6 runs, got %d", *runs)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Env: takeFingerprint(root, *seconds), Runs: map[string]map[string][]float64{}}
	// Round-robin over the workloads, one fresh process per run as the
	// driver does, so a slow minute on the host is spread over all of them.
	for r := 0; r < *runs; r++ {
		for _, w := range bf.Workloads {
			res, err := childRun(self, root, w.Name, *seedBase+int64(r), *seconds)
			if err != nil {
				return fmt.Errorf("calibrate: %s run %d: %w", w.Name, r, err)
			}
			if !res.Correct {
				return fmt.Errorf("calibrate: %s run %d was incorrect", w.Name, r)
			}
			if set.Runs[w.Name] == nil {
				set.Runs[w.Name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				set.Runs[w.Name][name] = append(set.Runs[w.Name][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: run %d/%d %s done\n", r+1, *runs, w.Name)
		}
	}
	if *out == "" {
		*out = filepath.Join(root, "benchmark", "out", "runs-"+time.Now().UTC().Format("20060102T150405")+".json")
	}
	if err := writeJSON(*out, set); err != nil {
		return err
	}
	fmt.Println("run set:", *out)

	needs := map[string]float64{} // metric -> widest spread over the workloads
	allFit := true
	fmt.Printf("%-18s %-14s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "iqr%", "maxdev%")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			vs := set.Runs[w.Name][m.Name]
			q := pyQuartiles(vs)
			var dev float64
			for _, v := range vs {
				if q[1] != 0 {
					dev = math.Max(dev, math.Abs(v-q[1])/math.Abs(q[1]))
				}
			}
			sp := spread(vs)
			needs[m.Name] = math.Max(needs[m.Name], sp)
			fmt.Printf("%-18s %-14s %12.5g %12.5g %12.5g %8.2f %8.2f\n", w.Name, m.Name, q[0], q[1], q[2], 100*sp, 100*dev)
		}
	}
	fmt.Printf("\n%-14s %10s %10s\n", "metric", "widest%", "bound")
	for i, m := range bf.EndToEnd {
		b, fits := ruleBound(m.Name, needs[m.Name])
		note := ""
		switch {
		case !fits:
			allFit = false
			note = "  SPREAD ABOVE THE CAP: demote it or lengthen its slices"
		case 2*needs[m.Name] > b:
			note = "  inside the bound, with less than twice the spread to spare"
		}
		fmt.Printf("%-14s %10.2f %10.3f%s\n", m.Name, 100*needs[m.Name], b, note)
		bf.EndToEnd[i].Bound = b
	}
	if *write {
		if err := writeJSON(filepath.Join(root, "BENCHMARK.json"), bf); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(root, "benchmark", "calibration.json"), set.Env); err != nil {
			return err
		}
		fmt.Println("bounds written to BENCHMARK.json, fingerprint to benchmark/calibration.json")
	}
	if !allFit {
		return fmt.Errorf("calibrate: a gated metric spreads by more than the %.0f%% cap", 100*boundCap)
	}
	return nil
}

// childRun runs one untraced workload in a fresh process and parses the
// last line of its output.
func childRun(self, root, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(out) // the child's tables and oracle lines say what failed
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
