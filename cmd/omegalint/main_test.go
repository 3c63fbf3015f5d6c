package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omegasm/internal/lint"
)

// writeTempModule lays out a throwaway module containing one wakehint
// violation and chdirs the test into it, so run() resolves it as the
// module under inspection.
func writeTempModule(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"spin.go": `package tmpmod

type Hint struct{ Kind int }

const WakeNow = 1

func Now() Hint { return Hint{Kind: WakeNow} }

type spinner struct{}

func (spinner) Step(now int64) Hint { return Now() }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// TestRunJSONFindings: -json must emit a machine-readable array with
// one object per finding and still exit 1.
func TestRunJSONFindings(t *testing.T) {
	writeTempModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	var findings []lint.Finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "wakehint" || f.File != "spin.go" || f.Line != 11 {
		t.Errorf("finding misreported: %+v", f)
	}
	if !strings.Contains(f.Message, "WakeNow on every path") {
		t.Errorf("message = %q", f.Message)
	}
	if stderr.Len() != 0 {
		t.Errorf("-json wrote to stderr: %s", stderr.String())
	}
}

// TestRunJSONClean: a clean tree emits an empty array, not null, so
// consumers can always range over the result.
func TestRunJSONClean(t *testing.T) {
	writeTempModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-c", "puborder"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean output = %q, want []", got)
	}
}

// TestRunPlainFindings: the default mode prints file:line:col lines and
// a count on stderr.
func TestRunPlainFindings(t *testing.T) {
	writeTempModule(t)
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "spin.go:11:") {
		t.Errorf("stdout = %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 finding(s)") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestRunBadFlags: unknown analyzers and unmatched patterns are usage
// errors (exit 2), distinct from findings (exit 1).
func TestRunBadFlags(t *testing.T) {
	writeTempModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-c", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nosuch"`) {
		t.Errorf("stderr = %q", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"./nosuchdir/..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad pattern: exit %d, want 2", code)
	}
}

// TestRunList enumerates the suite.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, name := range []string{"atomicfield", "puborder", "simdet", "wakehint"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list omits %s", name)
		}
	}
}

// TestDocCommandLinesParse parses every omegalint command line quoted in
// the docs, the workflows and the verify skill against the real flag
// set and analyzer table, without loading or analyzing anything.
func TestDocCommandLinesParse(t *testing.T) {
	cmds, err := lint.DocCommands("../..")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, c := range cmds {
		if c.Tool != "omegalint" {
			continue
		}
		var stderr bytes.Buffer
		if _, err := parse(c.Args, &stderr); err != nil {
			t.Errorf("%s: omegalint %s: %v\n%s", c.Where, strings.Join(c.Args, " "), err, stderr.String())
		}
		parsed++
	}
	if parsed == 0 {
		t.Error("found no omegalint command line in the docs; the extractor has gone blind")
	}
}
