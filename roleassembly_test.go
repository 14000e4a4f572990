package blob

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRoleAssemblyHasOneHome is the gate on wiring a role twice: each
// role is built, and each background loop run, by one function in the
// package that owns it, which cmd/blobnode, the in-process cluster and
// the TCP test harness all call. Outside its owner, no non-test code
// calls the pieces those functions assemble.
func TestRoleAssemblyHasOneHome(t *testing.T) {
	rules := []struct {
		pkg, name string // pkg "" matches a method of any receiver
		owner     string
		use       string
	}{
		{"blob/internal/dht", "NewStore", filepath.Join("internal", "mstore"), "mstore.NewProvider"},
		{"blob/internal/provider", "NewDiskStore", filepath.Join("internal", "provider"), "provider.Open"},
		{"blob/internal/pmanager", "SendHeartbeat", filepath.Join("internal", "pmanager"), "pmanager.HeartbeatLoop"},
		{"", "RepairAll", filepath.Join("internal", "repair"), "repair.Repairer.Sweep or Run"},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> import path
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		dir := filepath.Dir(path)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for _, r := range rules {
				if sel.Sel.Name != r.name || dir == r.owner {
					continue
				}
				if r.pkg != "" {
					if id, ok := sel.X.(*ast.Ident); !ok || imports[id.Name] != r.pkg {
						continue
					}
				}
				t.Errorf("%s: %s is called outside %s; use %s", fset.Position(call.Pos()), r.name, r.owner, r.use)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
