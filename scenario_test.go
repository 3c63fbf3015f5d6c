package omegasm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedScenariosReplay replays every committed fixture under
// testdata/scenarios: each minimized worst-case configuration must
// reproduce its pinned outcome byte-identically (sha256 of the recorded
// history's canonical bytes) with a clean checker verdict. Regenerate
// the fixtures with omegabench campaign -scenarios testdata/scenarios
// after an intentional behavior change.
func TestCommittedScenariosReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed scenarios under testdata/scenarios")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var sc Scenario
			if err := json.Unmarshal(raw, &sc); err != nil {
				t.Fatal(err)
			}
			if !sc.Expect.VerdictOK {
				t.Fatalf("fixture pins a failing verdict — committed scenarios must be clean")
			}
			if err := sc.Replay(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
