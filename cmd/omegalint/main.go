// Command omegalint runs the repository's invariant analyzers (see
// internal/lint) over the module: atomicfield, puborder, simdet and
// wakehint. It is the multichecker CI runs as a hard gate.
//
// Usage:
//
//	omegalint [-json] [-c analyzer,...] [packages]
//
// Package patterns follow the go tool's shape relative to the module
// root: "./..." (the default) loads every package, "./internal/..."
// a subtree, "./internal/engine" one package. Test files are not
// loaded: the invariants cover the shipped code paths.
//
// Findings print as file:line:col: [analyzer] message, one per line;
// with -json they print as a single JSON array of objects with
// analyzer/file/line/col/message fields (the machine-readable mode
// scenario-campaign tooling consumes). Exit status is 0 when clean, 1
// when there are findings, 2 on usage or load errors.
//
// Suppressions: //omegalint:allow <analyzer> <reason> on (or directly
// above) the offending line, or before a file's package clause to
// cover the whole file. The reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"omegasm/internal/lint"
	"omegasm/internal/lint/analysis"
	"omegasm/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is a parsed omegalint command line.
type options struct {
	json, list bool
	analyzers  []*analysis.Analyzer
	patterns   []string
}

// parse parses a command line without loading anything; a usage error
// has already been reported on stderr when it returns one.
func parse(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("omegalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&o.json, "json", false, "emit findings as a JSON array")
	checks := fs.String("c", "", "comma-separated analyzer subset (default: all)")
	fs.BoolVar(&o.list, "list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: omegalint [-json] [-c analyzer,...] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	if o.analyzers, err = selectAnalyzers(*checks); err != nil {
		fmt.Fprintf(stderr, "omegalint: %v\n", err)
		return o, err
	}
	o.patterns = fs.Args()
	return o, nil
}

// run executes the multichecker and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		return 2
	}
	if o.list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "omegalint: %v\n", err)
		return 2
	}
	module, err := loader.ModulePath(root)
	if err != nil {
		fmt.Fprintf(stderr, "omegalint: %v\n", err)
		return 2
	}
	prog, _, err := loader.LoadModule(loader.Config{Root: root, Module: module})
	if err != nil {
		fmt.Fprintf(stderr, "omegalint: %v\n", err)
		return 2
	}
	targets, err := filterPackages(prog, module, o.patterns)
	if err != nil {
		fmt.Fprintf(stderr, "omegalint: %v\n", err)
		return 2
	}

	findings, err := lint.RunSuite(prog, targets, o.analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "omegalint: %v\n", err)
		return 2
	}
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}
	if o.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "omegalint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if !o.json {
			fmt.Fprintf(stderr, "omegalint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -c subset, defaulting to the whole
// suite.
func selectAnalyzers(spec string) ([]*analysis.Analyzer, error) {
	all := lint.Analyzers()
	if spec == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// filterPackages returns the report targets matched by the go-style
// patterns (relative to the module root). No patterns or "./..." keeps
// everything. The full program stays loaded either way, so
// whole-program checks (atomicfield) always see every package; only
// reporting is filtered.
func filterPackages(prog *analysis.Program, module string, patterns []string) ([]*analysis.PackageInfo, error) {
	if len(patterns) == 0 {
		return nil, nil
	}
	match := func(path string) bool {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		for _, pat := range patterns {
			pat = strings.TrimPrefix(pat, "./")
			pat = strings.TrimSuffix(pat, "/")
			switch {
			case pat == "..." || pat == ".":
				return true
			case strings.HasSuffix(pat, "/..."):
				prefix := strings.TrimSuffix(pat, "/...")
				if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
					return true
				}
			case rel == pat:
				return true
			}
		}
		return false
	}
	var out []*analysis.PackageInfo
	for _, pkg := range prog.Packages {
		if match(pkg.Path) {
			out = append(out, pkg)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("patterns %v match no packages", patterns)
	}
	return out, nil
}
