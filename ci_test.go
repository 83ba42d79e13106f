package dgs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsResolve: every alternative of every `go test -run '…'`
// step in the CI workflow selects at least one Test function in the packages
// that step names. A renamed or deleted test otherwise leaves its CI step
// green while it runs nothing. '^$' (run no test, for benchmark-only steps)
// is the one alternative allowed to match nothing.
func TestCIRunPatternsResolve(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	data, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	step := regexp.MustCompile(`go test [^\n]*-run '([^']*)'([^\n]*)`)
	steps := step.FindAllStringSubmatch(string(data), -1)
	if len(steps) == 0 {
		t.Fatalf("%s: no go test -run steps found", workflow)
	}
	for _, m := range steps {
		pattern, pkgs := m[1], packagePatterns(m[2])
		if len(pkgs) == 0 {
			t.Errorf("%s: -run '%s' names no package", workflow, pattern)
			continue
		}
		tests := testFuncs(t, pkgs)
		for _, alt := range strings.Split(pattern, "|") {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
			if err != nil {
				t.Errorf("%s: -run alternative %q: %v", workflow, alt, err)
				continue
			}
			found := false
			for _, name := range tests {
				if re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: -run alternative %q matches no Test function in %s", workflow, alt, strings.Join(pkgs, " "))
			}
		}
	}
}

// packagePatterns returns the ./-relative package patterns of a go test
// command line's tail.
func packagePatterns(tail string) []string {
	var pkgs []string
	for _, f := range strings.Fields(tail) {
		if strings.HasPrefix(f, "./") {
			pkgs = append(pkgs, f)
		}
	}
	return pkgs
}

// testFuncs returns the names of the top-level Test functions in the test
// files of the packages the patterns name; "dir/..." walks dir's tree within
// this module (nested modules such as benchmark/ are not part of ./...).
func testFuncs(t *testing.T, patterns []string) []string {
	t.Helper()
	var names []string
	addDir := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	for _, p := range patterns {
		root, recursive := strings.CutSuffix(strings.TrimSuffix(p, "/"), "/...")
		if !recursive {
			addDir(root)
			continue
		}
		for _, dir := range moduleDirs(t, root) {
			addDir(dir)
		}
	}
	return names
}

// moduleDirs returns root and every directory below it that belongs to this
// module: hidden directories, testdata and nested modules such as
// benchmark/ are skipped.
func moduleDirs(t *testing.T, root string) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}
