package blob

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Reference-style
// links are not used in this repo's docs.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocLinks is the link-checker half of the docs gate CI enforces:
// every relative link in README.md and docs/*.md must resolve to a file
// (or directory) in the repository, so the cross-referenced spec set
// never rots as files move. External URLs are out of scope — CI must
// not depend on the network.
func TestDocLinks(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(files) < 3 {
		t.Fatalf("doc set too small (%v); the gate would check nothing", files)
	}

	for _, file := range files {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; not checked offline
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue // pure in-page anchor
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s): %v", file, m[1], resolved, err)
			}
		}
	}
}

// testName matches a test or fuzz target cited in prose; a trailing *
// cites every target with that prefix.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*\*?`)

// testFunc matches a test or fuzz target's definition.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// TestDocTestNames is the docs gate's other half: every test or fuzz
// target README.md, docs/*.md and benchmark/README.md cite must be
// defined by some _test.go in the repository, so a doc never points a
// reader at a test that was renamed or deleted.
func TestDocTestNames(t *testing.T) {
	defined := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		body, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(body), -1) {
			defined[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, file := range append([]string{"README.md", filepath.Join("benchmark", "README.md")}, docs...) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range testName.FindAllString(string(body), -1) {
			cited++
			if !defined[name] && !definesPrefix(defined, name) {
				t.Errorf("%s cites %s, which no _test.go defines", file, name)
			}
		}
	}
	if cited == 0 {
		t.Fatal("no test names cited; the gate would check nothing")
	}
}

// definesPrefix reports whether name is a prefix citation (Foo*) that
// some defined test matches.
func definesPrefix(defined map[string]bool, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return false
	}
	for d := range defined {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

// TestDocCrossReferences pins the documentation topology itself: the
// normative specs must be reachable from the README and from the
// architecture overview, so a reader landing anywhere finds them.
func TestDocCrossReferences(t *testing.T) {
	wants := map[string][]string{
		"README.md":              {"docs/architecture.md", "docs/diskstore-format.md", "docs/erasure.md", "docs/perf.md", "docs/observability.md", "docs/vmanager-group.md", "docs/workloads.md", "docs/robustness.md"},
		"docs/architecture.md":   {"diskstore-format.md", "erasure.md", "perf.md", "observability.md", "vmanager-group.md", "workloads.md", "robustness.md"},
		"docs/workloads.md":      {"architecture.md", "perf.md"},
		"docs/erasure.md":        {"architecture.md"},
		"docs/perf.md":           {"architecture.md"},
		"docs/observability.md":  {"architecture.md", "perf.md", "vmanager-group.md", "robustness.md"},
		"docs/vmanager-group.md": {"architecture.md"},
		"docs/robustness.md":     {"architecture.md", "observability.md", "erasure.md", "workloads.md", "vmanager-group.md"},
	}
	for file, targets := range wants {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			if !strings.Contains(string(body), "("+target+")") {
				t.Errorf("%s does not link %s", file, target)
			}
		}
	}
}
