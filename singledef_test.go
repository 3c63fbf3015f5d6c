package omegasm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestProtocolHasOneDefinition keeps the store's protocol from quietly
// forking again. The live KV and the simulator used to carry their own
// copies of the replica driver and the client write loop, and the copies
// drifted; now both engines run driver.go and tracker.go. The calls that
// ARE the protocol — claiming, extending and publishing the lease,
// shedding a demoted replica's queue, reading its drop generation to
// decide a resubmit, handing the client's writes to the leader — may
// therefore appear in one non-test file of the root package each.
// (SubmitBarrier is exempt: the driver fences a fresh lease with it and
// readQuorum legitimately fences a read with it too.) The single-write
// submit Set bypasses the tracker, so no root non-test file may call it:
// every client, simulated or live, hands writes over through SetAll.
func TestProtocolHasOneDefinition(t *testing.T) {
	guarded := map[string]map[string]bool{
		"Acquire": {}, "Extend": {}, "MarkReadable": {}, // lease.Register
		"DropPending": {}, "DropGeneration": {}, "SetAll": {}, "Set": {}, // consensus.KV
	}
	banned := map[string]bool{"Set": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && guarded[sel.Sel.Name] != nil {
						guarded[sel.Sel.Name][name] = true
					}
				}
				return true
			})
		}
	}
	for method, files := range guarded {
		names := make([]string, 0, len(files))
		for f := range files {
			names = append(names, f)
		}
		sort.Strings(names)
		switch {
		case banned[method]:
			if len(names) > 0 {
				t.Errorf("%s is called from %s: writes go through the tracker's SetAll hand-over", method, strings.Join(names, ", "))
			}
		case len(names) == 0:
			t.Errorf("%s is called nowhere in the root package: the guard is watching the wrong name", method)
		case len(names) > 1:
			t.Errorf("%s is called from %d files (%s): the protocol has one definition — extend driver.go/tracker.go instead of copying it",
				method, len(names), strings.Join(names, ", "))
		}
	}
}
