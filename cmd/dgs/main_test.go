package main

import (
	"bufio"
	"flag"
	"io"
	"os"
	"path"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dgs"
	"dgs/internal/sparse"
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
// offers resolves in this binary's codec registry. A codec registers from
// its package's init, so a binary that does not import that package cannot
// decode the frames its flags invite.
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
	for _, codec := range []string{"raw", "ternary", "sbc"} {
		if !seen[codec] {
			t.Errorf("no -codec usage advertises %q", codec)
		}
	}
}

func TestBlockShift(t *testing.T) {
	for _, c := range []struct {
		size  int
		shift uint
		ok    bool
	}{
		{0, 0, true}, // auto
		{1, 0, true},
		{64, 6, true},
		{1024, 10, true},
		{48, 0, false},
		{-8, 0, false},
	} {
		shift, err := blockShift(c.size)
		if (err == nil) != c.ok || shift != c.shift {
			t.Errorf("blockShift(%d) = %d, %v; want %d, ok=%v", c.size, shift, err, c.shift, c.ok)
		}
	}
}

// TestMethodNamesAgree: dgs train converts the parsed trainer.Method to
// dgs.Method by number, so both enumerations must name every method alike.
func TestMethodNamesAgree(t *testing.T) {
	for name, m := range methods {
		if got, want := dgs.Method(m).String(), m.String(); got != want {
			t.Errorf("-method %s: dgs.Method %q, trainer.Method %q", name, got, want)
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
