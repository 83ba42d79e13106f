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

// testSeams are the exported declarations under internal/ and cmd/ that only
// tests use, each with the reason it stays in production code.
// An entry that no longer exists, or that a non-test file now uses, fails
// TestNoTestOnlyExports: the list names only what it has to.
var testSeams = map[string]string{
	"agg.Aggregator.Kill":               "the crash the agg chaos tests inject mid-window",
	"experiments.Report.Values":         "the key numbers the root Benchmark* paper-shape checks assert on",
	"ps.Server.VSnapshot":               "the drain-fixpoint check (v_k == M) the tests of ps, agg, trainer and optim share",
	"raceflag.Enabled":                  "the race build the allocation-count tests of eleven packages skip under",
	"sparse.Gather":                     "the chunk the tests of sparse, agg, optim, ps and trainer cut from a dense vector",
	"sparse.Selector.TopK":              "the full-scan Top-k behind ps's BaselineServer reference and other packages' test inputs",
	"tensor.RNG.Float32":                "seeded uniform draws for the randomized tests of nn, ps, sparse, trainer and tensor",
	"tensor.RNG.Perm":                   "seeded permutations for the randomized tests of sparse, agg and tensor",
	"transport.ExactlyOnce.Incarnation": "the server incarnation the session tests of transport and trainer expect in every response envelope",
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

// TestNoTestOnlyExports: every exported declaration under internal/ and cmd/
// (function, method, interface method, struct field, type, constant and
// variable) has a user in non-test Go, or is a named test seam in
// testSeams. The module's non-test packages and those of the nested
// benchmark module (it imports internal/) are type-checked, and liveness
// spreads from the roots to a fixpoint. The roots are package-level
// variable initializers, main and init, every method that implements a
// standard-library interface (stdlibInterfaces), and the root package dgs's
// exported API together with the exported methods and fields of every type
// that API hands out (dgs.Result.Loss is a *stats.Series), since their
// users live outside the module. A declaration is live once a live one
// uses it; a field or variable only once live code reads it or takes its
// address, so one that is only written is not; a live value makes its type
// live; and a use of an interface method makes every method that
// implements it live. A use inside a function that only tests reach
// therefore does not count, and a test-only method cannot hide behind
// another type's method of the same name.
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

// testOnlyExports returns the exported declarations under internal/ and
// cmd/ that no non-test code reaches, sorted, as pkg.Name or
// pkg.Type.Member: functions, methods, struct fields, types, constants and
// variables.
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

	uses := map[types.Object][]types.Object{}
	judged := map[types.Object]string{}
	var roots []types.Object
	var named []*types.Named // every named non-interface type, for dispatch
	exposed := map[types.Type]bool{}
	for p, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				recordUses(m.info, d, uses)
			}
		}
		internal := strings.HasPrefix(p.Path(), "dgs/internal/") || strings.HasPrefix(p.Path(), "dgs/cmd/")
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch {
			case p.Path() == "dgs" && obj.Exported(), name == "main":
				roots = append(roots, obj)
				exposeAPI(types.Unalias(obj.Type()), exposed, &roots)
			case internal && obj.Exported():
				judged[obj] = p.Name() + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			var methods []*types.Func
			switch u := n.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					methods = append(methods, u.ExplicitMethod(i))
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); internal && f.Exported() && !f.Embedded() {
						judged[f] = p.Name() + "." + name + "." + f.Name()
					}
				}
			}
			if _, ok := n.Underlying().(*types.Interface); !ok {
				named = append(named, n)
				for i := 0; i < n.NumMethods(); i++ {
					methods = append(methods, n.Method(i))
				}
			}
			for _, fn := range methods {
				switch {
				case implementsStdlib(n, fn.Name(), std):
					roots = append(roots, fn)
				case internal && fn.Exported():
					judged[fn] = funcName(fn)
				}
			}
		}
	}

	live := map[types.Object]bool{}
	work := []types.Object{nil}
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		if live[obj] {
			return
		}
		live[obj] = true
		work = append(work, obj)
		switch obj := obj.(type) {
		case *types.Const, *types.Var: // a value in use uses its type
			if n, ok := types.Unalias(obj.Type()).(*types.Named); ok {
				mark(n.Obj())
			}
		case *types.Func:
			iface, ok := receiver(obj).Underlying().(*types.Interface)
			if !ok {
				return
			}
			for _, n := range named { // dispatch: every implementation of obj
				ptr := types.NewPointer(n)
				if !types.Implements(ptr, iface) {
					continue
				}
				if sel := types.NewMethodSet(ptr).Lookup(obj.Pkg(), obj.Name()); sel != nil {
					mark(sel.Obj())
				}
			}
		}
	}
	for _, r := range roots {
		mark(r)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range uses[obj] {
			mark(u)
		}
	}
	var out []string
	for obj, name := range judged {
		if !live[obj] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// exposeAPI appends to roots what code outside the module reaches through
// t, a type the root package's exported API hands out: its named types and,
// recursively, their exported methods and fields and the types those hand
// out in turn.
func exposeAPI(t types.Type, seen map[types.Type]bool, roots *[]types.Object) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		*roots = append(*roots, t.Obj())
		for i := 0; i < t.NumMethods(); i++ {
			if fn := t.Method(i); fn.Exported() {
				*roots = append(*roots, fn)
				exposeAPI(fn.Type(), seen, roots)
			}
		}
		exposeAPI(t.Underlying(), seen, roots)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				*roots = append(*roots, f)
				exposeAPI(f.Type(), seen, roots)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			*roots = append(*roots, t.Method(i))
			exposeAPI(t.Method(i).Type(), seen, roots)
		}
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				exposeAPI(tuple.At(i).Type(), seen, roots)
			}
		}
	case *types.Pointer:
		exposeAPI(t.Elem(), seen, roots)
	case *types.Slice:
		exposeAPI(t.Elem(), seen, roots)
	case *types.Array:
		exposeAPI(t.Elem(), seen, roots)
	case *types.Map:
		exposeAPI(t.Key(), seen, roots)
		exposeAPI(t.Elem(), seen, roots)
	case *types.Chan:
		exposeAPI(t.Elem(), seen, roots)
	}
}

// recordUses adds to uses what the code of one top-level declaration reads
// of the module, keyed by the declaration's object: a function's signature
// and body, a type's definition, a constant's value. Variable initializers
// and init run unconditionally, so they are keyed by nil. A field or
// variable that is only written, as a composite-literal key or on the left
// of a plain assignment, is not read; an address taken (how flags bind) or
// a compound assignment is.
func recordUses(info *types.Info, d ast.Decl, uses map[types.Object][]types.Object) {
	type part struct {
		owners []types.Object
		code   ast.Node
	}
	var parts []part
	switch d := d.(type) {
	case *ast.FuncDecl:
		var owner types.Object // nil for init
		if d.Recv != nil || d.Name.Name != "init" {
			owner = info.Defs[d.Name]
		}
		parts = append(parts, part{[]types.Object{owner}, d})
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				parts = append(parts, part{[]types.Object{info.Defs[s.Name]}, s})
			case *ast.ValueSpec:
				owners := []types.Object{nil}
				if d.Tok == token.CONST {
					owners = owners[:0]
					for _, id := range s.Names {
						owners = append(owners, info.Defs[id])
					}
				}
				parts = append(parts, part{owners, s})
			}
		}
	}
	for _, p := range parts {
		written := map[*ast.Ident]bool{}
		ast.Inspect(p.code, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						written[id] = true
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						switch l := ast.Unparen(lhs).(type) {
						case *ast.Ident:
							written[l] = true
						case *ast.SelectorExpr:
							written[l.Sel] = true
						}
					}
				}
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || written[n] || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path()+"/", "dgs/") {
					return true
				}
				switch o := obj.(type) {
				case *types.Func:
					obj = o.Origin()
				case *types.Var:
					if !o.IsField() && o.Parent() != o.Pkg().Scope() {
						return true // a local
					}
					obj = o.Origin()
				}
				for _, owner := range p.owners {
					uses[owner] = append(uses[owner], obj)
				}
			}
			return true
		})
	}
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
