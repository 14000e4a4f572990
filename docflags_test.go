package blob

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// flagDef matches a flag registration, flag.X("name", …) or
// fs.X("name", …), including the XVar(&v, "name", …) forms.
var flagDef = regexp.MustCompile(`\b(?:flag|fs)\.(\w+)\((?:&[\w.]+,\s*)?"([^"]+)"`)

// codeSpan matches one inline code span. FindAll consumes backticks in
// pairs, so the text between two spans is never read as a span.
var codeSpan = regexp.MustCompile("`([^`\n]*(?:\n[^`\n]+)*)`")

// spanFlag extracts the flag name a code span starts with.
var spanFlag = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)

// toolFlags are go tool flags the docs quote; no program here
// registers them.
var toolFlags = map[string]bool{
	"race": true, "run": true, "count": true, "bench": true, "benchtime": true,
	"benchmem": true, "fuzz": true, "fuzztime": true, "cpu": true, "short": true,
	"timeout": true, "v": true,
}

// TestDocFlags is the flag half of the docs gate: every inline code
// span in README.md or docs/*.md that starts with a flag must name one
// a command registers (cmd/… or the benchmark's main.go, read only), so
// a deleted flag cannot live on in the docs.
func TestDocFlags(t *testing.T) {
	sources := []string{filepath.Join("benchmark", "main.go")}
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			sources = append(sources, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, src := range sources {
		body, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(body), -1) {
			if m[1] != "NewFlagSet" {
				known[m[2]] = true
			}
		}
	}
	if !known["data-dir"] || !known["blob"] {
		t.Fatalf("flag scan found too little (%d names); the gate would check nothing", len(known))
	}

	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range append([]string{"README.md"}, docs...) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(proseOf(string(body)), -1) {
			f := spanFlag.FindStringSubmatch(m[1])
			if f != nil && !known[f[1]] && !toolFlags[f[1]] {
				t.Errorf("%s: `%s` names flag -%s, which no command registers", file, m[1], f[1])
			}
		}
	}
}

// proseOf blanks fenced code blocks, whose backticks are not spans.
func proseOf(md string) string {
	lines := strings.Split(md, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if fenced {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}
