package omegasm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"omegasm/internal/lint/loader"
)

// surfacePackages are the packages whose exported names make up the
// public surface the usage gate covers.
var surfacePackages = []string{"omegasm", "omegasm/load", "omegasm/check"}

// uncalledAllowed holds the exported names that stay although nothing
// outside their package names them, each with the reason. At most eight.
var uncalledAllowed = map[string]string{
	"omegasm.ErrClosed":          "an error value the API returns: Put, PutAll and Read after KV.Close",
	"omegasm.ErrLogFull":         "an error value the API returns: PutAll on a full log that cannot checkpoint (more than 16 processes)",
	"omegasm.ErrReadUnsupported": "an error value the API returns: Read in a linearizable mode on a log without a descriptor row",
	"omegasm.Algorithm.String":   "satisfies fmt.Stringer: ExampleWithAlgorithm and the option errors print the algorithm by name",
	"load.Process.String":        "satisfies fmt.Stringer: Validate's errors print the process by name",
	"check.Lease":                "input vocabulary of a History: a recorder marks a lease-local read for the strict check",
	"check.Quorum":               "input vocabulary of a History: a recorder marks a fenced quorum read for the strict check",
}

// TestEveryExportedNameHasACaller is the public-surface gate: every
// exported type, function, method, const and var of omegasm,
// omegasm/load and omegasm/check must be named by code outside its own
// package — cmd/, benchmark/, another package's non-test code — or by an
// Example function. A type that a used name's signature, field or value
// carries counts as used, and so does a method that satisfies an
// interface another package calls through. A name that fails the gate is
// deleted if nothing calls it, unexported if only its package does, and
// if only a test does, the test moves in-package.
func TestEveryExportedNameHasACaller(t *testing.T) {
	if len(uncalledAllowed) > 8 {
		t.Fatalf("the allowlist has %d entries; it holds at most 8", len(uncalledAllowed))
	}
	report, err := usageMap(".")
	if err != nil {
		t.Fatal(err)
	}
	if report.checked == 0 {
		t.Fatal("the usage map examined no exported names")
	}
	var bad []string
	for _, name := range report.uncalled {
		if _, ok := uncalledAllowed[name]; ok {
			continue
		}
		hint := "no caller anywhere outside tests: delete it, or move its test in-package and unexport it"
		if report.inPackage[name] {
			hint = "used only inside its own package: unexport it"
		}
		bad = append(bad, name+" — "+hint)
	}
	if len(bad) > 0 {
		t.Errorf("%d exported names have no caller outside their package:\n  %s",
			len(bad), strings.Join(bad, "\n  "))
	}
	for name := range uncalledAllowed {
		if !report.exported[name] {
			t.Errorf("allowlist entry %s names nothing exported: drop it", name)
		} else if !slices.Contains(report.uncalled, name) {
			t.Errorf("allowlist entry %s has a caller now: drop it", name)
		}
	}
}

// usageReport is what usageMap found.
type usageReport struct {
	checked   int
	exported  map[string]bool // every exported name examined
	uncalled  []string        // sorted
	inPackage map[string]bool // uncalled names their own package uses
}

// usageMap type-checks the module rooted at root, collects the exported
// names of the surface packages and reports which of them nothing outside
// their package uses.
func usageMap(root string) (*usageReport, error) {
	prog, l, err := loader.LoadModule(loader.Config{Root: root, Module: "omegasm"})
	if err != nil {
		return nil, err
	}
	surface := map[*types.Package]bool{}
	var dirs []string
	for _, pkg := range prog.Packages {
		if slices.Contains(surfacePackages, pkg.Path) {
			surface[pkg.Pkg] = true
			dirs = append(dirs, pkg.Dir)
		}
	}
	used := map[types.Object]bool{}
	inPkg := map[types.Object]bool{}
	ifaceCalls := map[*types.Func]bool{} // interface methods some code calls
	note := func(from *types.Package, obj types.Object) {
		if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
			ifaceCalls[fn] = true
		}
		if obj.Pkg() == nil || !surface[obj.Pkg()] {
			return
		}
		if obj.Pkg() == from {
			inPkg[obj] = true
		} else {
			used[obj] = true
		}
	}
	for _, pkg := range prog.Packages {
		for _, obj := range pkg.TypesInfo.Uses {
			note(pkg.Pkg, obj)
		}
	}
	for _, dir := range dirs {
		if err := noteExamples(prog.Fset, l, dir, note); err != nil {
			return nil, err
		}
	}

	// The exported names of the surface, keyed "pkg.Type.Member".
	type entry struct {
		key string
		obj types.Object
	}
	var names []entry
	for pkg := range surface {
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			names = append(names, entry{pkg.Name() + "." + n, obj})
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					names = append(names, entry{pkg.Name() + "." + n + "." + m.Name(), m})
				}
			}
		}
	}

	// Close over what used names carry: a used function's parameter and
	// result types, a used var's or const's type, and the types of a used
	// struct's exported fields and a used interface's methods (fields and
	// interface methods are part of their type, not gated on their own).
	queue := make([]types.Object, 0, len(used))
	for obj := range used {
		queue = append(queue, obj)
	}
	var carry func(types.Type)
	carry = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if obj := t.Obj(); surface[obj.Pkg()] && !used[obj] {
				used[obj] = true
				queue = append(queue, obj)
			}
		case *types.Pointer:
			carry(t.Elem())
		case *types.Slice:
			carry(t.Elem())
		case *types.Array:
			carry(t.Elem())
		case *types.Map:
			carry(t.Key())
			carry(t.Elem())
		case *types.Chan:
			carry(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				carry(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				carry(t.Results().At(i).Type())
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if _, ok := obj.(*types.TypeName); !ok {
			carry(obj.Type())
			continue
		}
		switch u := obj.Type().Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() {
					carry(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				carry(u.ExplicitMethod(i).Type())
			}
		}
	}

	r := &usageReport{exported: map[string]bool{}, inPackage: map[string]bool{}}
	for _, e := range names {
		r.checked++
		r.exported[e.key] = true
		if used[e.obj] || satisfiesCalledInterface(e.obj, ifaceCalls) {
			continue
		}
		r.uncalled = append(r.uncalled, e.key)
		if inPkg[e.obj] {
			r.inPackage[e.key] = true
		}
	}
	sort.Strings(r.uncalled)
	return r, nil
}

// isInterfaceMethod reports whether fn is declared by an interface.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// satisfiesCalledInterface reports whether obj is a concrete method that
// implements an interface method some package other than obj's calls.
func satisfiesCalledInterface(obj types.Object, calls map[*types.Func]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil || isInterfaceMethod(fn) {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for im := range calls {
		if im.Name() != fn.Name() || im.Pkg() == fn.Pkg() {
			continue
		}
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// noteExamples type-checks the external test files of dir that declare
// Example functions and notes every name those functions use. Such files
// must compile on their own: an example is documentation, not a harness.
func noteExamples(fset *token.FileSet, imp types.ImporterFrom, dir string, note func(*types.Package, types.Object)) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return err
	}
	var files []*ast.File
	var spans [][2]token.Pos
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		has := false
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				spans = append(spans, [2]token.Pos{fd.Pos(), fd.End()})
				has = true
			}
		}
		if has {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(files[0].Name.Name, fset, files, info)
	if err != nil {
		return err
	}
	for id, obj := range info.Uses {
		for _, s := range spans {
			if id.Pos() >= s[0] && id.Pos() < s[1] {
				note(pkg, obj)
				break
			}
		}
	}
	return nil
}
