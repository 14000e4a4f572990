package blob

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestWireCountsAreBounded is the gate on decoding counts from the
// network: outside internal/wire, no code converts a raw Uvarint straight
// to an int (`int(r.Uvarint())`). A count that sizes an allocation or a
// loop goes through wire.Reader.Count, which fails the reader when the
// remaining bytes cannot hold that many entries, so a 20-byte body cannot
// demand gigabytes or a 2^63-iteration loop.
func TestWireCountsAreBounded(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || path == filepath.Join("internal", "wire") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			conv, ok := n.(*ast.CallExpr)
			if !ok || len(conv.Args) != 1 {
				return true
			}
			if id, ok := conv.Fun.(*ast.Ident); !ok || id.Name != "int" {
				return true
			}
			call, ok := conv.Args[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Uvarint" && len(call.Args) == 0 {
				t.Errorf("%s: int(….Uvarint()) decodes an unbounded count; use wire.Reader.Count", fset.Position(conv.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
