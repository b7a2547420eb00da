package repro

// The test-only API gate: every function and method declared in a non-test
// file under internal/ must be used by a non-test file of this module or of
// the benchmark module (bench/). API that only tests call belongs in the
// tests' own files (a package's export_test.go), so a reader of the
// production packages meets only what production runs. See DESIGN.md,
// "Test-only API".

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names what stays in production files with no production
// caller, each with the reason it stays. A key is a package path, or a
// declaration as the gate names it (pkg.Func, pkg.Type or pkg.Type.Method),
// and covers everything named under it.
var apiAllowlist = map[string]string{
	// The injected clock's fake is the seam every timeout test drives; it
	// lives beside the clock so that tests of core, dist and server share it.
	"repro/internal/clock.Fake":    "test seam: the injectable clock's fake",
	"repro/internal/clock.NewFake": "test seam: the injectable clock's fake",
	// The isolation package is the test oracle: a reference implementation
	// that the engine's tests compare against.
	"repro/internal/isolation": "test oracle: the reference isolation checker",
	// Read by tests of other packages, which cannot see this package's
	// export_test.go, and no production value can stand in for them.
	"repro/internal/core.Engine.Txm":         "server's in-doubt tests prepare transactions on an engine's manager",
	"repro/internal/core.Engine.Parked":      "cross-shard tests in core, server and entangle wait for a prepared group",
	"repro/internal/storage.Table.ScanCount": "grounding tests in core and entangle count whole-table reads",
	"repro/internal/wal.Log.Flushes":         "txn and entangle tests count one log write per transaction",
	"repro/internal/lock.Manager.Holds":      "txn's isolation-level tests check which locks a transaction holds",
	"repro/internal/lock.Manager.HeldCount":  "txn's isolation-level tests check that a transaction holds no lock",
	"repro/internal/lock.Manager.Stats":      "core's grounding test waits for an UPDATE to queue on a lock",
}

// listedPkg is the part of `go list -json` the gate reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists the non-test packages that dir's module builds, with their
// dependencies, export data for the standard library included.
func goList(t *testing.T, dir string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// apiChecker type-checks the module's packages from source and the
// standard library from export data.
type apiChecker struct {
	fset    *token.FileSet
	listed  map[string]listedPkg
	checked map[string]*types.Package
	std     types.Importer
	files   map[string][]*ast.File
	info    *types.Info
}

func (c *apiChecker) Import(path string) (*types.Package, error) {
	p, ok := c.listed[path]
	if !ok {
		return nil, fmt.Errorf("package %s not listed", path)
	}
	if p.Standard {
		return c.std.Import(path)
	}
	return c.check(p)
}

func (c *apiChecker) check(p listedPkg) (*types.Package, error) {
	if pkg, ok := c.checked[p.ImportPath]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(p.ImportPath, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.checked[p.ImportPath] = pkg
	c.files[p.ImportPath] = files
	return pkg, nil
}

// unusedFuncs returns "pkg.Func" or "pkg.Recv.Method" for every function
// and method declared in a non-test file of a package under
// repro/internal/ that no non-test file of the repository uses, less the
// computed exemptions and the allowlist.
func unusedFuncs(t *testing.T) []string {
	t.Helper()
	c := &apiChecker{
		fset:    token.NewFileSet(),
		listed:  map[string]listedPkg{},
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	exports := map[string]string{}
	var mine []listedPkg
	for _, dir := range []string{".", "bench"} {
		for _, p := range goList(t, dir) {
			if _, seen := c.listed[p.ImportPath]; seen {
				continue
			}
			c.listed[p.ImportPath] = p
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else {
				mine = append(mine, p)
			}
		}
	}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	for _, p := range mine {
		if _, err := c.check(p); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}

	// A call through an interface leaves no static use of the method that
	// serves it. The interfaces are those the checked packages declare,
	// named or literal, and the standard ones the repository's types
	// implement for the standard library's sake. errors.Is, errors.As and
	// errors.Unwrap reach an error type's Is, As and Unwrap through
	// interface literals of their own.
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces := []*types.Interface{errIface}
	for _, tv := range c.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			ifaces = append(ifaces, it)
		}
	}
	for _, std := range []struct{ pkg, name string }{{"fmt", "Stringer"}, {"io", "Reader"}, {"io", "Writer"}} {
		pkg, err := c.Import(std.pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(std.name).Type().Underlying().(*types.Interface))
	}
	implements := func(recv *types.Named, it *types.Interface) bool {
		return types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)
	}
	servesInterface := func(recv *types.Named, method string) bool {
		if (method == "Is" || method == "As" || method == "Unwrap") && implements(recv, errIface) {
			return true
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method && implements(recv, it) {
					return true
				}
			}
		}
		return false
	}

	// The types entangle re-exports by alias are the program-body API that
	// applications call; their methods need no caller inside the module.
	reexported := map[*types.TypeName]bool{}
	if pkg := c.checked["repro/entangle"]; pkg != nil {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				reexported[named.Obj()] = true
			}
		}
	}

	allowed := func(name string) bool {
		for key := range apiAllowlist {
			if name == key || strings.HasPrefix(name, key+".") {
				return true
			}
		}
		return false
	}
	var unused []string
	for path, files := range c.files {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				if used[fn] {
					continue
				}
				name := path + "." + fn.Name()
				if fd.Recv != nil {
					recv := fn.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					named := recv.(*types.Named)
					if reexported[named.Obj()] || servesInterface(named, fn.Name()) {
						continue
					}
					name = path + "." + named.Obj().Name() + "." + fn.Name()
				}
				if allowed(name) {
					continue
				}
				unused = append(unused, fmt.Sprintf("%s (%s)", name, c.fset.Position(fd.Pos())))
			}
		}
	}
	sort.Strings(unused)
	return unused
}

// TestNoTestOnlyAPI fails when a function or method under internal/ has no
// use outside _test.go files. Move such API into the _test.go file of the
// package whose tests use it (export_test.go for an external test
// package), rewrite a cross-package test onto production API, or delete it
// with the test that only pins it.
func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	for _, name := range unusedFuncs(t) {
		t.Errorf("no non-test use: %s", name)
	}
}
