package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"omegasm"
)

// campaignOpts carries the campaign subcommand's flag values.
type campaignOpts struct {
	seeds     int
	seedBase  int64
	out       string
	mutate    string
	mutation  omegasm.SimMutation // mutate, parsed
	expect    string
	scenarios string
	keep      int
}

// parseCampaignMutation maps the -mutate flag to a SimMutation.
func parseCampaignMutation(s string) (omegasm.SimMutation, error) {
	switch s {
	case "", "none":
		return omegasm.MutNone, nil
	case "drop-quorum-ack":
		return omegasm.MutDropQuorumAck, nil
	case "premature-lease-extend":
		return omegasm.MutPrematureLeaseExtend, nil
	}
	return omegasm.MutNone, fmt.Errorf("unknown mutation %q (want none, drop-quorum-ack or premature-lease-extend)", s)
}

// parseCampaign parses the campaign subcommand's command line. -mutate
// and -expect are validated as they are parsed, so a typo fails before
// the sweep runs rather than after it; the flag package has reported any
// error it returns.
func parseCampaign(args []string) (campaignOpts, *profiles, error) {
	var o campaignOpts
	fs, prof := newFlagSet("campaign")
	fs.IntVar(&o.seeds, "seeds", 50, "seeds per grid point")
	fs.Int64Var(&o.seedBase, "seedbase", 0, "first seed of the sweep (nightlies rotate this)")
	fs.StringVar(&o.out, "out", "", "write the JSON report to this file")
	fs.Func("mutate", "seed a bug (drop-quorum-ack, premature-lease-extend) to prove checker non-vacuity", func(s string) (err error) {
		o.mutate = s
		o.mutation, err = parseCampaignMutation(s)
		return err
	})
	fs.Func("expect", "gate the exit status (clean: no violations allowed; violations: at least one required)", func(s string) error {
		switch s {
		case "", "none", "clean", "violations":
			o.expect = s
			return nil
		}
		return fmt.Errorf("want none, clean or violations")
	})
	fs.StringVar(&o.scenarios, "scenarios", "", "regenerate minimized scenario fixtures into this directory")
	fs.IntVar(&o.keep, "keep", 10, "worst runs kept in the report")
	return o, prof, fs.Parse(args)
}

// runCampaign is the campaign subcommand: a seed sweep over the stock
// (or mutated) grid, a scored report on stdout and optionally as JSON,
// an expectation gate for CI, and optionally a refresh of the committed
// scenario fixtures.
func runCampaign(args []string) int {
	o, prof, err := parseCampaign(args)
	if err != nil {
		return 2
	}
	stop, err := prof.start()
	if err != nil {
		return fail(err)
	}
	defer stop()

	cfg := omegasm.CampaignConfig{Seeds: o.seeds, SeedBase: o.seedBase, Keep: o.keep, Mutation: o.mutation}
	rep, err := omegasm.RunCampaign(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("campaign: %d runs over %d grid points, seeds %d..%d\n",
		rep.Runs, len(rep.Points), rep.SeedBase, rep.SeedBase+int64(rep.Seeds)-1)
	fmt.Printf("  violation runs: %d   near-miss runs: %d\n", rep.ViolationRuns, rep.NearMissRuns)
	fmt.Printf("  worst runs:\n")
	for _, w := range rep.Worst {
		fmt.Printf("    %-20s seed=%-6d score=%-8d viol=%d near=%d churn=%d stall=%d",
			w.Point, w.Seed, w.Score, w.Violations, w.NearMisses, w.LeaderChanges, w.CommitStallMax)
		if w.FirstViolation != "" {
			fmt.Printf("  %s", w.FirstViolation)
		}
		fmt.Println()
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("report written to %s\n", o.out)
	}
	if o.scenarios != "" {
		scs, err := omegasm.BuildWorstScenarios(cfg)
		if err != nil {
			return fail(err)
		}
		if err := os.MkdirAll(o.scenarios, 0o755); err != nil {
			return fail(err)
		}
		for _, sc := range scs {
			raw, err := json.MarshalIndent(sc, "", "  ")
			if err != nil {
				return fail(err)
			}
			path := filepath.Join(o.scenarios, sc.Name+".json")
			if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
				return fail(err)
			}
			fmt.Printf("scenario %s (seed %d, churn %d) written to %s\n",
				sc.Name, sc.Config.Seed, sc.Expect.LeaderChanges, path)
		}
	}
	switch o.expect {
	case "clean":
		if rep.ViolationRuns > 0 {
			fmt.Fprintf(os.Stderr, "omegabench: expected a clean campaign, got %d violation runs\n", rep.ViolationRuns)
			return 1
		}
		fmt.Println("expectation met: campaign is clean")
	case "violations":
		if rep.ViolationRuns == 0 {
			fmt.Fprintf(os.Stderr, "omegabench: expected violations (mutation %q seeded), got none — the checker is vacuous\n", o.mutate)
			return 1
		}
		fmt.Printf("expectation met: mutation %q detected in %d/%d runs\n", o.mutate, rep.ViolationRuns, rep.Runs)
	}
	return 0
}
