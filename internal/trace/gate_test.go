package trace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// eventTypeConstants parses this package's sources and returns every
// exported constant of type Type.
func eventTypeConstants(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse trace package: %v", err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				inTypeBlock := false
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					// In an iota block only the first spec names the
					// type; later specs inherit it.
					if vs.Type != nil {
						id, ok := vs.Type.(*ast.Ident)
						inTypeBlock = ok && id.Name == "Type"
					}
					if !inTypeBlock {
						continue
					}
					for _, n := range vs.Names {
						if ast.IsExported(n.Name) {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no exported Type constants")
	}
	return names
}

// TestEventTypesCovered is the drift gate for the event vocabulary:
// every exported event type constant must (a) have a label in the
// labels table and (b) appear at an emit site in non-test code outside
// this package. A constant added without wiring it anywhere — or an
// emit site removed without retiring the constant — fails here.
func TestEventTypesCovered(t *testing.T) {
	names := eventTypeConstants(t)

	// (a) Label coverage, both directions.
	if len(labels) != len(names) {
		t.Errorf("labels table has %d entries, package declares %d Type constants", len(labels), len(names))
	}
	seen := make(map[string]bool, len(labels))
	for typ, label := range labels {
		if label == "" {
			t.Errorf("type %d has an empty label", typ)
		}
		if seen[label] {
			t.Errorf("label %q used twice", label)
		}
		seen[label] = true
	}

	// (b) Emit-site coverage: scan every non-test .go file in the repo
	// outside this package for "trace.<Name>".
	root := filepath.Join("..", "..")
	used := make(map[string]bool, len(names))
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "trace" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, n := range names {
			if !used[n] && strings.Contains(string(src), "trace."+n) {
				used[n] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk repo: %v", err)
	}
	for _, n := range names {
		if !used[n] {
			t.Errorf("event type %s has no emit site outside internal/trace", n)
		}
	}
}
