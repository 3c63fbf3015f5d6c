// Package lint is omegalint: a suite of static analyzers that
// machine-check the repository invariants its correctness arguments
// lean on but the compiler cannot see. Four analyzers:
//
//   - atomicfield: a struct field accessed through sync/atomic anywhere
//     must be accessed through sync/atomic everywhere, and 64-bit
//     atomic fields must be 8-byte aligned on 32-bit layouts (an mmap
//     cross-process substrate, parked in the ROADMAP, would make
//     misalignment a real fault, not a style nit).
//   - puborder: publication areas are written data -> meta -> header,
//     so a published descriptor can never name a half-written area
//     (the Disk-Paxos pointer-to-value indirection of internal/
//     consensus).
//   - simdet: code reachable from the deterministic simulator must be
//     free of wall-clock reads, global math/rand, goroutine spawns and
//     unordered map iteration, so seeded replays stay byte-identical.
//   - wakehint: engine.Machine Step implementations must return a real
//     wake hint on every path and must be able to go idle (no
//     always-WakeNow busy-poll regressions).
//
// Each analyzer honors //omegalint:allow <analyzer> <reason>
// suppression directives (see directive.go); an empty reason is itself
// a finding. The framework under internal/lint/analysis mirrors the
// golang.org/x/tools/go/analysis API shape so the suite can move to the
// upstream multichecker if that dependency ever becomes available to
// this module.
//
// One more invariant is about the docs rather than the code: DocCommands
// extracts every command line the docs quote, and the binaries' tests
// parse each against their real flag sets, so a stale line fails `go
// test`.
package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"

	"omegasm/internal/lint/analysis"
)

// Analyzers returns the full omegalint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AtomicField,
		PubOrder,
		SimDet,
		WakeHint,
	}
}

// Finding is one resolved diagnostic of a suite run.
type Finding struct {
	// Analyzer names the check that fired.
	Analyzer string `json:"analyzer"`
	// File is the path of the offending file as loaded.
	File string `json:"file"`
	// Line and Col locate the finding (1-based).
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message states the violated invariant.
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// RunSuite applies each analyzer to the target packages, honoring
// allow directives, and returns the surviving findings sorted by
// position. prog must be the full loaded program — whole-program checks
// (atomicfield) read it even when targets narrows what is reported; nil
// targets means every package of prog.
func RunSuite(prog *analysis.Program, targets []*analysis.PackageInfo, analyzers []*analysis.Analyzer) ([]Finding, error) {
	if targets == nil {
		targets = prog.Packages
	}
	var findings []Finding
	for _, pkg := range targets {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:   a,
				Fset:       prog.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Pkg,
				TypesInfo:  pkg.TypesInfo,
				TypesSizes: types.SizesFor("gc", "amd64"),
				Program:    prog,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				p := prog.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					Analyzer: name,
					File:     p.Filename,
					Line:     p.Line,
					Col:      p.Column,
					Message:  d.Message,
				})
			}
			if err := runWithAllows(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// posLess orders two token positions within one file set.
func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}
