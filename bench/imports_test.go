package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The benchmark must outlive the clean-up ROADMAP item 3 plans: it may
// not import or call anything that item will delete or move, so that a
// simplicity change never has to edit the benchmark it is judged with.

// forbiddenImports are package path suffixes.
var forbiddenImports = []string{"internal/chaos", "internal/experiments", "internal/mesh"}

// forbiddenCalls are package-qualified names, by the package path's last
// element; a trailing * matches any suffix.
var forbiddenCalls = map[string][]string{
	"transport": {"NewLocalNetwork", "LocalNetwork", "RunLoopback*", "LoopbackConfig", "RunRevocationDrill", "LossyConn", "NewLossyConn"},
	"backbone":  {"StartMetro", "NewMetroNetwork", "Metro*"},
	"core":      {"UnmarshalDataFrame"},
	"bn256":     {"ref*", "Ref*", "FieldCoreComparison"},
}

// forbiddenMethods are the allocating data-frame family of core.Session.
var forbiddenMethods = []string{"SealData", "OpenData", "AuthData"}

func matches(pattern, name string) bool {
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, p)
	}
	return pattern == name
}

func TestImportsAreStable(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs := map[string]string{} // local name → last path element
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			for _, bad := range forbiddenImports {
				if strings.HasSuffix(p, bad) {
					t.Errorf("%s imports %s", path, p)
				}
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				pkgs[imp.Name.Name] = name
			} else {
				pkgs[name] = name
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for _, m := range forbiddenMethods {
				if sel.Sel.Name == m {
					t.Errorf("%s uses .%s", fset.Position(sel.Pos()), m)
				}
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
				for _, pattern := range forbiddenCalls[pkgs[id.Name]] {
					if matches(pattern, sel.Sel.Name) {
						t.Errorf("%s uses %s.%s", fset.Position(sel.Pos()), id.Name, sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
}
