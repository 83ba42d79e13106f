package main

import (
	"bufio"
	"flag"
	"io"
	"os"
	"path"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"dgs/internal/nn"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
)

// flagSet builds a subcommand's flags without running it.
func flagSet(t *testing.T, name string) *flag.FlagSet {
	t.Helper()
	c, ok := commands[name]
	if !ok {
		t.Fatalf("no subcommand %q", name)
	}
	fs := flag.NewFlagSet("dgs "+name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.setup(fs)
	return fs
}

func commandNames() []string {
	var names []string
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestAdvertisedCodecsAreLinked: every codec name a -codec usage string
// offers resolves in the codec table, so no flag invites frames that the
// binary cannot decode.
func TestAdvertisedCodecsAreLinked(t *testing.T) {
	choices := regexp.MustCompile(`\(([a-z]+(?:\|[a-z]+)+)\)`)
	seen := map[string]bool{}
	for _, name := range commandNames() {
		f := flagSet(t, name).Lookup("codec")
		if f == nil {
			continue
		}
		m := choices.FindStringSubmatch(f.Usage)
		if m == nil {
			t.Errorf("dgs %s -codec: usage %q lists no codec names", name, f.Usage)
			continue
		}
		for _, codec := range strings.Split(m[1], "|") {
			seen[codec] = true
			if _, err := sparse.CodecByName(codec); err != nil {
				t.Errorf("dgs %s -codec %s: %v", name, codec, err)
			}
		}
	}
	for _, codec := range []string{"raw", "sbc"} {
		if !seen[codec] {
			t.Errorf("no -codec usage advertises %q", codec)
		}
	}
}

// TestOneWorkloadEveryRole: every process of a deployment reads the same
// run description. For every model × dataset pair that trainer.Build
// accepts, and for the defaults, each role parses -model and -dataset and
// sizes its model as the worker's Build does; the default is the ResNetS
// of 10 classes on 3 channels; worker and train share every run flag with
// one default; no role keeps the retired -classes, -inc, -hw, -dense-down,
// -shards or -block-size, and `dgs server` no -codec of its own; and for
// every method, with and without Eq. 6, `dgs server` builds the ps.Config
// `dgs train` runs.
func TestOneWorkloadEveryRole(t *testing.T) {
	resnet := nn.DefaultResNetS(10)
	resnet.InC = 3
	defaults := nn.NewResNetS(tensor.NewRNG(1), resnet).LayerSizes()
	argSets := [][]string{nil}
	for m := range models {
		for d := range datasets {
			argSets = append(argSets, []string{"-model", m, "-dataset", d})
		}
	}
	for _, args := range argSets {
		var tr training
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		tr.register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		cfg, err := trainer.Build(tr.resolve())
		if err != nil {
			continue // a pair Build refuses, such as an MLP on images
		}
		want := cfg.BuildModel(tensor.NewRNG(1)).LayerSizes()
		if args == nil && !slices.Equal(want, defaults) {
			t.Errorf("default workload has layers %v, want the ResNetS of 10 classes on 3 channels %v", want, defaults)
		}
		for _, role := range []string{"server", "agg", "replica", "worker", "train"} {
			fs := flagSet(t, role)
			if err := fs.Parse(args); err != nil {
				t.Errorf("dgs %s %v: %v", role, args, err)
				continue
			}
			w := workload{fs.Lookup("model").Value.String(), fs.Lookup("dataset").Value.String()}
			if got := w.build().LayerSizes(); !slices.Equal(got, want) {
				t.Errorf("dgs %s %v: layers %v, the worker builds %v", role, args, got, want)
			}
		}
	}

	var tr training
	shared := flag.NewFlagSet("", flag.ContinueOnError)
	tr.register(shared)
	worker, train := flagSet(t, "worker"), flagSet(t, "train")
	worker.VisitAll(func(f *flag.Flag) {
		if g := train.Lookup(f.Name); g != nil && (g.DefValue != f.DefValue || g.Usage != f.Usage) {
			t.Errorf("-%s: worker default %q (%s), train default %q (%s)", f.Name, f.DefValue, f.Usage, g.DefValue, g.Usage)
		}
	})
	shared.VisitAll(func(f *flag.Flag) {
		if worker.Lookup(f.Name) == nil || train.Lookup(f.Name) == nil {
			t.Errorf("-%s: a run flag that worker and train do not both define", f.Name)
		}
	})
	for _, name := range commandNames() {
		fs := flagSet(t, name)
		for _, retired := range []string{"classes", "inc", "hw", "dense-down"} {
			if fs.Lookup(retired) != nil {
				t.Errorf("dgs %s still defines -%s; -model, -dataset and -method replace it", name, retired)
			}
		}
		// A deployed server is one ps.Server at the auto-tuned block size
		// (a restore keeps its file's), and it answers each request in the
		// codec the request arrived in.
		for _, retired := range []string{"shards", "block-size"} {
			if fs.Lookup(retired) != nil {
				t.Errorf("dgs %s still defines -%s, a server setting that no longer exists", name, retired)
			}
		}
	}
	if flagSet(t, "server").Lookup("codec") != nil {
		t.Error("dgs server defines -codec; the server answers in each request's codec")
	}

	// The server side of one run: server, worker and train define the fleet
	// flags alike, server and train the server flags, and the parameter
	// server `dgs server` builds is the one `dgs train` runs in process.
	sameFlags := func(names []string, roles ...string) {
		for _, name := range names {
			first := flagSet(t, roles[0]).Lookup(name)
			for _, role := range roles {
				f := flagSet(t, role).Lookup(name)
				if f == nil || first == nil || f.DefValue != first.DefValue || f.Usage != first.Usage {
					t.Errorf("-%s: dgs %s defines %+v, dgs %s %+v", name, roles[0], first, role, f)
				}
			}
		}
	}
	sameFlags([]string{"method", "workers"}, "server", "worker", "train")
	sameFlags([]string{"secondary", "ratio"}, "server", "train")
	for m := range methods {
		for _, extra := range [][]string{nil, {"-secondary", "-ratio", "0.05"}} {
			args := append([]string{"-method", m, "-workers", "3", "-model", "mlp", "-dataset", "mixture"}, extra...)
			var sv serving
			var tr training
			sfs, tfs := flag.NewFlagSet("", flag.ContinueOnError), flag.NewFlagSet("", flag.ContinueOnError)
			sv.register(sfs)
			tr.register(tfs)
			serverFlags(tfs, &tr.Spec)
			if err := sfs.Parse(args); err != nil {
				t.Fatal(err)
			}
			if err := tfs.Parse(args); err != nil {
				t.Fatal(err)
			}
			scfg, tcfg := sv.config(), must(trainer.Build(tr.resolve()))
			got := trainer.ServerConfig(&scfg, scfg.BuildModel(tensor.NewRNG(1)).LayerSizes())
			want := trainer.ServerConfig(&tcfg, tcfg.BuildModel(tensor.NewRNG(1)).LayerSizes())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: dgs server builds %+v, dgs train %+v", args, got, want)
			}
		}
	}
}

// TestREADMECommandsResolve: every `dgs <subcommand>` or
// `./cmd/dgs <subcommand>` command line in README.md's fenced blocks names
// a subcommand that exists and only flags that subcommand defines, and no
// retired cmd/dgs-* path is left in README.md.
func TestREADMECommandsResolve(t *testing.T) {
	const readme = "../../README.md"
	data, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "cmd/dgs-") {
		t.Errorf("%s still names a retired cmd/dgs-* binary", readme)
	}
	checked := 0
	for _, line := range fencedCommandLines(string(data)) {
		for _, words := range commandSegments(line) {
			sub, args, ok := dgsInvocation(words)
			if !ok {
				continue
			}
			checked++
			if _, ok := commands[sub]; !ok {
				t.Errorf("%s: %q: no subcommand %q", readme, line, sub)
				continue
			}
			fs := flagSet(t, sub)
			for i := 0; i < len(args); i++ {
				if !strings.HasPrefix(args[i], "-") {
					continue
				}
				name, value, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
				f := fs.Lookup(name)
				if f == nil {
					t.Errorf("%s: %q: dgs %s has no flag -%s", readme, line, sub, name)
					continue
				}
				if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
					continue
				}
				if !hasValue {
					i++ // the next word is this flag's value
					if i < len(args) {
						value = args[i]
					}
				}
				if err := fs.Set(name, value); err != nil {
					t.Errorf("%s: %q: -%s %q: %v", readme, line, name, value, err)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no dgs command lines found", readme)
	}
}

// fencedCommandLines returns the lines of s's ``` blocks, with backslash
// continuations joined and # comments dropped.
func fencedCommandLines(s string) []string {
	var lines []string
	inBlock, cont := false, ""
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inBlock, cont = !inBlock, ""
			continue
		}
		if !inBlock {
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = cont + strings.TrimSpace(line)
		if strings.HasSuffix(line, `\`) {
			cont = strings.TrimSuffix(line, `\`) + " "
			continue
		}
		cont = ""
		if line != "" {
			lines = append(lines, line)
		}
	}
	return lines
}

// commandSegments splits a shell line into the word lists of its commands
// (separated by &, &&, ;, |), honouring single and double quotes.
func commandSegments(line string) [][]string {
	var segs [][]string
	var words []string
	var word strings.Builder
	inWord, quote := false, rune(0)
	flushWord := func() {
		if inWord {
			words = append(words, word.String())
		}
		word.Reset()
		inWord = false
	}
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '"' || r == '\'':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			flushWord()
		case r == '&' || r == ';' || r == '|':
			flushWord()
			if len(words) > 0 {
				segs = append(segs, words)
			}
			words = nil
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	flushWord()
	if len(words) > 0 {
		segs = append(segs, words)
	}
	return segs
}

// dgsInvocation reports whether words run the dgs binary — `dgs …`,
// `path/to/dgs …` or `go run ./cmd/dgs …` — and returns its subcommand
// and arguments, cut at the first output redirection.
func dgsInvocation(words []string) (sub string, args []string, ok bool) {
	switch {
	case len(words) >= 4 && words[0] == "go" && words[1] == "run" && words[2] == "./cmd/dgs":
		words = words[3:]
	case len(words) >= 2 && path.Base(words[0]) == "dgs":
		words = words[1:]
	default:
		return "", nil, false
	}
	if !regexp.MustCompile(`^[a-z][a-z0-9-]*$`).MatchString(words[0]) {
		return "", nil, false // prose such as "dgs (root)", not a command
	}
	for i, w := range words {
		if strings.HasPrefix(w, ">") || strings.HasPrefix(w, "<") {
			words = words[:i]
			break
		}
	}
	return words[0], words[1:], true
}
