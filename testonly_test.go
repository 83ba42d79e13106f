package dgs

import (
	"go/ast"
	"path"
	"sort"
	"strconv"
	"testing"
)

// testSeams are the exported functions and methods under internal/ and cmd/
// that only tests call, each with the reason it stays in production code.
// An entry that no longer exists, or that a non-test file now uses, fails
// TestNoTestOnlyExports: the list names only what it has to.
var testSeams = map[string]string{
	"agg.Aggregator.Kill":        "the crash the agg chaos tests inject mid-window",
	"ps.Server.VSnapshot":        "the drain-fixpoint check (v_k == M) the tests of ps, agg, trainer and optim share",
	"sparse.Selector.TopK":       "the full-scan Top-k behind ps's BaselineServer reference and other packages' test inputs",
	"tensor.RNG.Float32":         "seeded uniform draws for the randomized tests of nn, ps, sparse, trainer and tensor",
	"tensor.RNG.Perm":            "seeded permutations for the randomized tests of sparse, agg and tensor",
	"trainer.ExactlyOnceHandler": "the infallible mirror-policy server stack the trainer chaos and TCP tests serve",
	"transport.NewLoopback":      "the in-process transport of the transport and trainer tests",
}

// stdlibMethods are method names the standard library calls through its
// interfaces (error, fmt.Stringer, sort.Interface, container/heap, io,
// http.Handler, json), so a method so named has a user even when no file of
// the module calls it.
var stdlibMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"String": true, "GoString": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// TestNoTestOnlyExports: every exported top-level function and method under
// internal/ and cmd/ has a user in non-test Go, or is a named test seam in
// testSeams. Non-test files of the nested benchmark module count as users,
// as it imports internal/. A use inside another function that only tests
// reach does not count, so the scan repeats to a fixpoint over every
// function, exported or not: a helper whose one caller is test-only is
// test-only too. main, init and assembly-bodied functions always run, and
// methods the standard library calls by interface (stdlibMethods) are not
// judged. Uses are matched by name, per package for functions (a bare Name
// inside the package, pkg.Name outside it) and across the module for
// methods (any x.Name that is not a package qualifier). The root package
// dgs is exempt: its users live outside the module.
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

// funcUse is one reference to a function or method: key is pkg.Name for a
// function, .Name for a method; from is the key of the top-level function
// whose body makes it, empty outside any function.
type funcUse struct {
	from, key string
}

// testOnlyExports returns the exported functions and methods under internal/
// and cmd/ that no non-test code reaches, sorted, as pkg.Func or
// pkg.Type.Method.
func testOnlyExports(t *testing.T) []string {
	t.Helper()
	declared := map[string]string{} // function key → its use key
	judged := map[string]bool{}
	var uses []funcUse
	for _, root := range []string{".", "benchmark"} {
		for _, f := range moduleSource(t, root, false) {
			pkg := path.Join(root, f.Name.Name) // benchmark's main is not cmd/dgs's
			imports := importNames(f)
			for _, d := range f.Decls {
				from := ""
				if fn, ok := d.(*ast.FuncDecl); ok {
					from = funcKey(pkg, fn)
					declared[from] = pkg + "." + fn.Name.Name
					if fn.Recv != nil {
						declared[from] = "." + fn.Name.Name
					}
					if root == "." && pkg != "dgs" && fn.Name.IsExported() && !(fn.Recv != nil && stdlibMethods[fn.Name.Name]) {
						judged[from] = true
					}
					if fn.Body == nil || fn.Recv == nil && (fn.Name.Name == "main" || fn.Name.Name == "init") {
						from = "" // entry points and assembly bodies always run
					}
				}
				var walk func(n ast.Node) bool
				walk = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						if n.Body != nil {
							ast.Inspect(n.Body, walk)
						}
						return false
					case *ast.Field: // a declared name is not a use
						ast.Inspect(n.Type, walk)
						return false
					case *ast.KeyValueExpr:
						if _, ok := n.Key.(*ast.Ident); ok { // a field name
							ast.Inspect(n.Value, walk)
							return false
						}
					case *ast.SelectorExpr:
						key := "." + n.Sel.Name
						if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
							key = imports[x.Name] + "." + n.Sel.Name
						}
						uses = append(uses, funcUse{from, key})
						ast.Inspect(n.X, walk)
						return false
					case *ast.Ident:
						uses = append(uses, funcUse{from, pkg + "." + n.Name})
					}
					return true
				}
				ast.Inspect(d, walk)
			}
		}
	}
	dead := map[string]bool{}
	for grew := true; grew; {
		live := map[string]bool{}
		for _, u := range uses {
			if u.from == "" || !dead[u.from] && declared[u.from] != u.key {
				live[u.key] = true
			}
		}
		grew = false
		for sym, key := range declared {
			if !dead[sym] && !live[key] {
				dead[sym], grew = true, true
			}
		}
	}
	var out []string
	for sym := range judged {
		if dead[sym] {
			out = append(out, sym)
		}
	}
	sort.Strings(out)
	return out
}

// funcKey names a function declaration pkg.Func or pkg.Type.Method.
func funcKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	return pkg + "." + typeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
}

// importNames maps the names a file refers to its imports by to the
// imported packages' names (the last path element, as in this module).
func importNames(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			out[imp.Name.Name] = name
		} else {
			out[name] = name
		}
	}
	return out
}
