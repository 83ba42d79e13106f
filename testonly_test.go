package dgs

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams are the exported functions and methods under internal/ and cmd/
// that only tests call, each with the reason it stays in production code.
// An entry that no longer exists, or that a non-test file now uses, fails
// TestNoTestOnlyExports: the list names only what it has to.
var testSeams = map[string]string{
	"agg.Aggregator.Kill":               "the crash the agg chaos tests inject mid-window",
	"ps.Server.VSnapshot":               "the drain-fixpoint check (v_k == M) the tests of ps, agg, trainer and optim share",
	"sparse.Selector.TopK":              "the full-scan Top-k behind ps's BaselineServer reference and other packages' test inputs",
	"tensor.RNG.Float32":                "seeded uniform draws for the randomized tests of nn, ps, sparse, trainer and tensor",
	"tensor.RNG.Perm":                   "seeded permutations for the randomized tests of sparse, agg and tensor",
	"trainer.ExactlyOnceHandler":        "the infallible mirror-policy server stack the trainer chaos and TCP tests serve",
	"transport.ExactlyOnce.Incarnation": "the server incarnation the session tests of transport and trainer expect in every response envelope",
	"transport.NewLoopback":             "the in-process transport of the transport and trainer tests",
}

// stdlibInterfaces declares the standard-library interfaces whose methods
// the standard library itself calls (fmt, sort, container/heap, errors, io,
// net/http, encoding/json, flag), so a method that implements one has a
// user even when no file of the module calls it.
const stdlibInterfaces = `package stdlib

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
)

type (
	errorI     error
	stringer   fmt.Stringer
	goStringer fmt.GoStringer
	formatter  fmt.Formatter
	heapI      heap.Interface
	reader     io.Reader
	writer     io.Writer
	closer     io.Closer
	netError   net.Error
	handler    http.Handler
	jsonM      json.Marshaler
	jsonU      json.Unmarshaler
	textM      encoding.TextMarshaler
	textU      encoding.TextUnmarshaler
	flagValue  flag.Value
	unwrapper  interface{ Unwrap() error }
	iser       interface{ Is(error) bool }
	aser       interface{ As(any) bool }
)
`

// TestNoTestOnlyExports: every exported function and method under internal/
// and cmd/, interface methods included, has a user in non-test Go, or is a
// named test seam in testSeams. The module's non-test packages and those of
// the nested benchmark module (it imports internal/) are type-checked, and
// liveness spreads from the roots to a fixpoint: package-level
// initializers, main and init, the root package dgs's exported API (its
// users live outside the module) and every method that implements a
// standard-library interface (stdlibInterfaces) are live; a function is
// live once a live function uses it; and a use of an interface method makes
// every method that implements that interface's method live. A use inside a
// function that only tests reach therefore does not count, and a test-only
// method cannot hide behind another type's method of the same name.
func TestNoTestOnlyExports(t *testing.T) {
	found := map[string]bool{}
	for _, sym := range testOnlyExports(t) {
		found[sym] = true
		if _, ok := testSeams[sym]; !ok {
			t.Errorf("%s: exported, but only tests call it: delete it, move it into a _test.go file, or list it in testSeams with a reason", sym)
		}
	}
	for sym := range testSeams {
		if !found[sym] {
			t.Errorf("testSeams lists %s, which is gone or has a non-test user: drop the entry", sym)
		}
	}
}

// moduleImporter type-checks the non-test Go of this module's packages (and
// the nested benchmark module's) from source, each once, so every package
// shares one object per declaration; the standard library comes from the
// source importer.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[*types.Package][]*ast.File
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path != "dgs" && !strings.HasPrefix(path, "dgs/") {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "dgs"), "/"))
	if dir == "" {
		dir = "."
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[p] = p, files
	return p, nil
}

// testOnlyExports returns the exported functions and methods under internal/
// and cmd/ that no non-test code reaches, sorted, as pkg.Func or
// pkg.Type.Method.
func testOnlyExports(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
	}
	for _, dir := range append(moduleDirs(t, "."), "benchmark") {
		if len(parseDir(t, dir, false)) == 0 {
			continue
		}
		if _, err := m.Import(path.Join("dgs", filepath.ToSlash(dir))); err != nil {
			t.Fatal(err)
		}
	}
	std := stdlibInterfaceTypes(t, m)

	// uses maps each function to the functions and methods its body names;
	// the nil key holds the uses outside any function.
	uses := map[*types.Func][]*types.Func{}
	var roots, judged []*types.Func
	var named []*types.Named // every named non-interface type, for dispatch
	for p, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				var owner *types.Func // nil: package-level code, and init
				if fn, ok := d.(*ast.FuncDecl); ok && (fn.Recv != nil || fn.Name.Name != "init") {
					owner = m.info.Defs[fn.Name].(*types.Func)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := m.info.Uses[id].(*types.Func); ok {
							uses[owner] = append(uses[owner], fn.Origin())
						}
					}
					return true
				})
			}
		}
		internal := strings.HasPrefix(p.Path(), "dgs/internal/") || strings.HasPrefix(p.Path(), "dgs/cmd/")
		scope := p.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				switch {
				case p.Path() == "dgs" && obj.Exported(), name == "main":
					roots = append(roots, obj)
				case internal && obj.Exported():
					judged = append(judged, obj)
				}
			case *types.TypeName:
				n, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				var methods []*types.Func
				if iface, ok := n.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						methods = append(methods, iface.ExplicitMethod(i))
					}
				} else {
					named = append(named, n)
					for i := 0; i < n.NumMethods(); i++ {
						methods = append(methods, n.Method(i))
					}
				}
				for _, fn := range methods {
					switch {
					case implementsStdlib(n, fn.Name(), std), p.Path() == "dgs" && fn.Exported():
						roots = append(roots, fn)
					case internal && fn.Exported():
						judged = append(judged, fn)
					}
				}
			}
		}
	}

	live := map[*types.Func]bool{}
	work := append([]*types.Func{nil}, roots...)
	var mark func(fn *types.Func)
	mark = func(fn *types.Func) {
		if live[fn] {
			return
		}
		live[fn] = true
		work = append(work, fn)
		iface, ok := receiver(fn).Underlying().(*types.Interface)
		if !ok {
			return
		}
		for _, n := range named { // dispatch: every implementation of fn
			ptr := types.NewPointer(n)
			if !types.Implements(ptr, iface) {
				continue
			}
			if sel := types.NewMethodSet(ptr).Lookup(fn.Pkg(), fn.Name()); sel != nil {
				mark(sel.Obj().(*types.Func))
			}
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range uses[fn] {
			mark(u)
		}
	}
	var out []string
	for _, fn := range judged {
		if !live[fn] {
			out = append(out, funcName(fn))
		}
	}
	sort.Strings(out)
	return out
}

// stdlibInterfaceTypes type-checks stdlibInterfaces and returns its types.
func stdlibInterfaceTypes(t *testing.T, imp types.Importer) []*types.Interface {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "stdlib.go", stdlibInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := (&types.Config{Importer: imp}).Check("stdlib", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*types.Interface
	for _, name := range p.Scope().Names() {
		out = append(out, p.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out
}

// implementsStdlib reports whether n (or *n) implements one of the std
// interfaces that has a method called method.
func implementsStdlib(n *types.Named, method string, std []*types.Interface) bool {
	for _, iface := range std {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method && (types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface)) {
				return true
			}
		}
	}
	return false
}

// receiver returns the type a method is declared on, or an invalid type for
// a function.
func receiver(fn *types.Func) types.Type {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return recv.Type()
	}
	return types.Typ[types.Invalid]
}

// funcName names a function pkg.Func and a method pkg.Type.Method, pkg
// being the package's name.
func funcName(fn *types.Func) string {
	recv := receiver(fn)
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok {
		return fn.Pkg().Name() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
