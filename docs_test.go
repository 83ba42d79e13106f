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
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && name.MatchString(s) {
						out[s] = true
					}
				}
				return true
			})
		}
	}
	return out
}
