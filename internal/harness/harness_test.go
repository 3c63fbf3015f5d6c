package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestAllExperimentsQuick runs every registered experiment in quick mode
// and requires every verdict to pass: this is the repository's
// "reproduce the paper" integration test.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(Config{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if out.Report == nil {
				t.Fatalf("%s: no report", e.ID)
			}
			for _, v := range out.Report.Verdicts {
				if !v.OK {
					t.Errorf("%s verdict failed: %s", e.ID, v)
				}
			}
			for _, tbl := range out.Tables {
				t.Logf("\n%s", tbl.Render())
			}
		})
	}
}

// quickReportSHA256 pins the quick report: every experiment's tables,
// verdicts and notes in All() order at Config{Quick: true}. A run is a
// pure function of its seeds, so the digest moves only when a schedule
// or a measurement does; such a move is named and re-pinned once, with
// the reason in CHANGES.md (same protocol as sim.history_hash48).
const quickReportSHA256 = "d612d7466448367ba9af15f1ddf35a462269b3a4325826918ee5056dd2f516d2"

func TestQuickReportIsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("single-goroutine rerun of TestAllExperimentsQuick's runs; the plain test step pins it")
	}
	h := sha256.New()
	for _, e := range All() {
		out, err := e.Run(Config{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(h, "%s\n", e.ID)
		for _, tbl := range out.Tables {
			fmt.Fprintf(h, "%s\n", tbl.Render())
		}
		if out.Report != nil {
			fmt.Fprintf(h, "%s\n", out.Report)
		}
		for _, n := range out.Notes {
			fmt.Fprintf(h, "note: %s\n", n)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != quickReportSHA256 {
		t.Fatalf("quick report digest %s, pinned %s", got, quickReportSHA256)
	}
}
