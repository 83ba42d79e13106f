package dgs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocMetricNamesResolve: every backticked dgs_* metric name in README.md
// and DESIGN.md is registered as a string literal in this module's non-test
// Go. A `{k=v}` (or `{label}`) label set is stripped, an `{a,b}` alternation
// expands to one name per alternative, and a trailing `*` is a prefix that
// must match at least one registered name. A renamed or deleted metric
// otherwise lives on in the docs. CHANGES.md is history and is not checked.
func TestDocMetricNamesResolve(t *testing.T) {
	registered := metricLiterals(t)
	span := regexp.MustCompile("`(dgs_[^`]*)`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				for _, name := range expandMetricName(m[1]) {
					if !metricResolves(name, registered) {
						t.Errorf("%s:%d: `%s`: %s is not a registered metric", doc, i+1, m[1], name)
					}
				}
			}
		}
	}
}

var braceGroup = regexp.MustCompile(`\{([^{}]*)\}`)

// expandMetricName returns the metric names one documented name stands for.
func expandMetricName(doc string) []string {
	loc := braceGroup.FindStringSubmatchIndex(doc)
	if loc == nil {
		return []string{doc}
	}
	head, body, tail := doc[:loc[0]], doc[loc[2]:loc[3]], doc[loc[1]:]
	if !strings.Contains(body, ",") || strings.Contains(body, "=") {
		return expandMetricName(head + tail) // a label set
	}
	var out []string
	for _, alt := range strings.Split(body, ",") {
		out = append(out, expandMetricName(head+strings.TrimSpace(alt)+tail)...)
	}
	return out
}

func metricResolves(name string, registered map[string]bool) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	if !wild {
		return registered[name]
	}
	for r := range registered {
		if strings.HasPrefix(r, prefix) {
			return true
		}
	}
	return false
}

// metricLiterals collects every string literal shaped like a metric name in
// the module's non-test Go files.
func metricLiterals(t *testing.T) map[string]bool {
	t.Helper()
	name := regexp.MustCompile(`^dgs_[a-z0-9_]+$`)
	out := map[string]bool{}
	for _, f := range moduleSource(t) {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && name.MatchString(s) {
					out[s] = true
				}
			}
			return true
		})
	}
	return out
}

// moduleSource parses every non-test Go file of the module.
func moduleSource(t *testing.T) []*ast.File {
	t.Helper()
	var out []*ast.File
	for _, dir := range moduleDirs(t, ".") {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
	}
	return out
}

// TestDocIdentifiersResolve: every backticked Go reference in README.md and
// DESIGN.md names something the module declares. In a dotted chain such as
// `ps.Server.Push`, a leading `pkg.Name` whose pkg is a package of this
// module must name a top-level declaration or a method of a type in that
// package's non-test Go, and each `Type.Member` whose exported Type the
// module declares must name a field or method of a type so called (or of
// one it embeds). Other qualifiers (the standard library, receivers like
// `mu.Lock`, file names like `worker.go`) are skipped, as are names with an
// underscore: those are stage and metric names (`ps.push_ms`), not Go.
// CHANGES.md is history and is not checked.
func TestDocIdentifiersResolve(t *testing.T) {
	decls := map[string]map[string]bool{}   // package name → names it declares
	members := map[string]map[string]bool{} // type name → fields and methods
	embeds := map[string][]string{}         // type name → embedded type names
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	for _, f := range moduleSource(t) {
		pkg := f.Name.Name
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(decls, pkg, d.Name.Name)
				if d.Recv != nil {
					add(members, typeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(decls, pkg, n.Name)
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						add(decls, pkg, typ)
						add(members, typ, "") // declared, even with no members
						var fields *ast.FieldList
						switch ts := spec.Type.(type) {
						case *ast.StructType:
							fields = ts.Fields
						case *ast.InterfaceType:
							fields = ts.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							if len(field.Names) == 0 {
								embeds[typ] = append(embeds[typ], typeName(field.Type))
							}
							for _, n := range field.Names {
								add(members, typ, n.Name)
							}
						}
					}
				}
			}
		}
	}
	var hasMember func(typ, name string, depth int) bool
	hasMember = func(typ, name string, depth int) bool {
		if members[typ][name] {
			return true
		}
		for _, e := range embeds[typ] {
			if depth < 4 && (e == name || hasMember(e, name, depth+1)) {
				return true
			}
		}
		return false
	}

	span := regexp.MustCompile("`([^`]+)`")
	chain := regexp.MustCompile(`(?:^|[^\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := unfenced(string(data))
		for _, sm := range span.FindAllStringSubmatchIndex(text, -1) {
			line := 1 + strings.Count(text[:sm[0]], "\n")
			for _, cm := range chain.FindAllStringSubmatch(text[sm[2]:sm[3]], -1) {
				parts := strings.Split(cm[1], ".")
				for i := 0; i+1 < len(parts); i++ {
					q, name := parts[i], parts[i+1]
					if strings.Contains(name, "_") {
						break
					}
					if _, ok := decls[q]; ok && i == 0 {
						if !decls[q][name] {
							t.Errorf("%s:%d: `%s`: package %s declares no %s", doc, line, cm[1], q, name)
						}
						continue
					}
					if _, ok := members[q]; !ok || !token.IsExported(q) {
						break
					}
					if !hasMember(q, name, 0) {
						t.Errorf("%s:%d: `%s`: no type %s in the module has a field or method %s", doc, line, cm[1], q, name)
					}
				}
			}
		}
	}
}

// typeName returns the type name a receiver or embedded field refers to:
// T, *T and pkg.T all give T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// unfenced blanks the lines of fenced code blocks, keeping line numbers:
// code is not prose, and a stray backtick in it would misalign every span
// after it.
func unfenced(doc string) string {
	lines := strings.Split(doc, "\n")
	in := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if in || fence {
			lines[i] = ""
		}
		if fence {
			in = !in
		}
	}
	return strings.Join(lines, "\n")
}
