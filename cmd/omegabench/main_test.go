package main

import (
	"reflect"
	"testing"

	"omegasm"
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
