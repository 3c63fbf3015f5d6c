package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"omegasm"
	"omegasm/internal/harness"
)

// TestDispatch pins the command-line grammar: the subcommand comes
// first, and a bare or flag-led command line still means exp, so
// `omegabench -quick` keeps working. Nothing here starts a run.
func TestDispatch(t *testing.T) {
	for _, tc := range []struct {
		args []string
		cmd  string
		rest []string
	}{
		{nil, "exp", nil},
		{[]string{"-quick"}, "exp", []string{"-quick"}},
		{[]string{"exp", "-quick", "-seeds", "2"}, "exp", []string{"-quick", "-seeds", "2"}},
		{[]string{"exp", "-quick", "F2"}, "exp", []string{"-quick", "F2"}},
		{[]string{"load", "-dur", "500ms"}, "load", []string{"-dur", "500ms"}},
		{[]string{"campaign", "-seeds", "6"}, "campaign", []string{"-seeds", "6"}},
		{[]string{"bogus", "-quick"}, "bogus", []string{"-quick"}},
	} {
		cmd, rest := dispatch(tc.args)
		if cmd != tc.cmd || !reflect.DeepEqual(rest, tc.rest) {
			t.Errorf("dispatch(%q) = %q, %q; want %q, %q", tc.args, cmd, rest, tc.cmd, tc.rest)
		}
	}
}

// TestUsageErrorsExitTwo runs the command lines that must be refused
// before any job starts: each returns 2, the usage status.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"bogus"},
		{"exp", "-nosuchflag"},
		{"exp", "F2", "-quick"}, // flags come before the IDs
		{"-load"},
		{"load", "-dur", "soon"},
		{"campaign", "-expect", "nonsense"},
		{"campaign", "-mutate", "nonsense"},
		{"campaign", "-campseeds", "6"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("run(%q) = %d, want 2", args, got)
		}
	}
}

// TestExpUnknownIDIsRefusedBeforeAnyRun: one bad name among good ones
// exits 2 with the index on standard error, and nothing has run — the
// -out file is created only after the names are resolved.
func TestExpUnknownIDIsRefusedBeforeAnyRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.txt")
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	status := run([]string{"exp", "-quick", "-out", out, "F2", "F9"})
	os.Stderr = stderr
	w.Close()
	msg, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if status != 2 {
		t.Errorf("exit status %d, want 2", status)
	}
	for _, id := range harness.IDs() {
		if !strings.Contains(string(msg), id) {
			t.Errorf("message does not list %s:\n%s", id, msg)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("report file exists (%v): an experiment ran before the bad ID was refused", err)
	}
}

// TestExpRunsOnlyTheNamedExperiments: `exp -quick F2` prints F2's block
// and the closing pass/fail line, nothing else.
func TestExpRunsOnlyTheNamedExperiments(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.txt")
	if status := run([]string{"exp", "-quick", "-out", out, "F2"}); status != 0 {
		t.Fatalf("exit status %d", status)
	}
	report, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(report), "paper artifact:"); got != 1 {
		t.Errorf("%d experiment blocks, want 1", got)
	}
	if !strings.Contains(string(report), "\nF2 — ") {
		t.Errorf("no F2 block:\n%s", report)
	}
	if !strings.HasSuffix(string(report), "\nomegabench: all experiments passed\n") {
		t.Errorf("no closing line:\n%s", report)
	}
}

// TestExpWithoutIDsMeansTheWholeIndex pins the selection: no name selects
// all fifteen in report order, names select exactly themselves, in the
// order given.
func TestExpWithoutIDsMeansTheWholeIndex(t *testing.T) {
	ids := func(exps []harness.Experiment) (out []string) {
		for _, e := range exps {
			out = append(out, e.ID)
		}
		return out
	}
	all, err := selectExps(nil)
	if err != nil || len(all) != 15 || !reflect.DeepEqual(ids(all), harness.IDs()) {
		t.Errorf("selectExps(nil) = %v, %v; want the index %v", ids(all), err, harness.IDs())
	}
	two, err := selectExps([]string{"T6", "F2"})
	if err != nil || !reflect.DeepEqual(ids(two), []string{"T6", "F2"}) {
		t.Errorf("selectExps(T6 F2) = %v, %v", ids(two), err)
	}
}

func TestParseCampaign(t *testing.T) {
	o, _, err := parseCampaign([]string{"-seeds", "6", "-seedbase", "9", "-mutate", "drop-quorum-ack", "-expect", "violations", "-keep", "3"})
	if err != nil {
		t.Fatal(err)
	}
	want := campaignOpts{seeds: 6, seedBase: 9, mutate: "drop-quorum-ack", mutation: omegasm.MutDropQuorumAck, expect: "violations", keep: 3}
	if o != want {
		t.Errorf("parsed %+v, want %+v", o, want)
	}
	if o, _, err = parseCampaign(nil); err != nil || o.seeds != 50 || o.keep != 10 || o.mutation != omegasm.MutNone || o.expect != "" {
		t.Errorf("defaults: %+v, %v", o, err)
	}
}

func TestParseCampaignMutation(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want omegasm.SimMutation
		ok   bool
	}{
		{"", omegasm.MutNone, true},
		{"none", omegasm.MutNone, true},
		{"drop-quorum-ack", omegasm.MutDropQuorumAck, true},
		{"premature-lease-extend", omegasm.MutPrematureLeaseExtend, true},
		{"nonsense", omegasm.MutNone, false},
	} {
		got, err := parseCampaignMutation(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("parseCampaignMutation(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
