package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// verdict is compare's judgement of one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	same       verdict = "same"
	unresolved verdict = "unresolved"
)

// judge compares run set b (the change) against a (the parent) for one
// metric. A regression is a median worse by more than the bound. A gain
// needs the change to win nine tenths of the index-paired runs and the
// medians to differ by more than the parent's own inter-quartile range.
// Where either side's spread is wider than the bound the medians decide
// nothing: the pair is unresolved unless every run of one side beats
// every run of the other.
func judge(a, b []float64, higherIsBetter bool, bound float64) verdict {
	if len(a) < 4 || len(b) < 4 {
		return unresolved
	}
	sign := 1.0 // after this, larger is worse
	if higherIsBetter {
		sign = -1
	}
	qa, qb := pyQuartiles(a), pyQuartiles(b)
	minA, maxA := extremes(a, sign)
	minB, maxB := extremes(b, sign)
	switch {
	case maxB < minA:
		return better
	case minB > maxA:
		return worse
	}
	if spread(a) > bound || spread(b) > bound {
		return unresolved
	}
	ma, mb := sign*qa[1], sign*qb[1]
	if mb-ma > bound*math.Abs(ma) {
		return worse
	}
	wins, losses := 0, 0
	for i := 0; i < min(len(a), len(b)); i++ {
		switch {
		case sign*b[i] < sign*a[i]:
			wins++
		case sign*b[i] > sign*a[i]:
			losses++
		}
	}
	if wins+losses > 0 && float64(wins) >= 0.9*float64(wins+losses) && ma-mb > qa[2]-qa[0] {
		return better
	}
	return same
}

func extremes(xs []float64, sign float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, sign*x), math.Max(hi, sign*x)
	}
	return lo, hi
}

func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare parent.json change.json (run sets written by calibrate)")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	var sets [2]runSet
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if sets[0].Env.Seconds != sets[1].Env.Seconds {
		return fmt.Errorf("compare: run length differs (%vs against %vs)", sets[0].Env.Seconds, sets[1].Env.Seconds)
	}
	fmt.Printf("parent %s (%s)\nchange %s (%s)\n", sets[0].Env.Commit, sets[0].Env.When, sets[1].Env.Commit, sets[1].Env.When)
	fmt.Printf("%-18s %-14s %12s %12s %8s %7s  %s\n", "workload", "metric", "parent med", "change med", "change%", "bound%", "verdict")
	var names []string
	for w := range sets[0].Runs {
		names = append(names, w)
	}
	sort.Strings(names)
	regressed := 0
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			a, b := sets[0].Runs[w][m.Name], sets[1].Runs[w][m.Name]
			v := judge(a, b, m.Better == "higher", m.Bound)
			if v == worse {
				regressed++
			}
			var ma, mb, pct float64
			if len(a) >= 4 && len(b) >= 4 {
				ma, mb = pyQuartiles(a)[1], pyQuartiles(b)[1]
				if ma != 0 {
					pct = 100 * (mb - ma) / math.Abs(ma)
				}
			}
			fmt.Printf("%-18s %-14s %12.5g %12.5g %+8.2f %7.1f  %s\n", w, m.Name, ma, mb, pct, 100*m.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("compare: %d pairs got worse by more than their bound", regressed)
	}
	return nil
}
