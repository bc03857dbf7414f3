package analysis_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"github.com/dice-project/dice/internal/analysis"
)

const helperFixture = `// Package q exercises the shared type-query helpers.
package q

type T struct{ N int }

func (t *T) Ptr()    {}
func (t T) Val()     {}
func (t T) GobEncode() ([]byte, error) { return nil, nil }

func Plain() {}

type M map[string]int

func Use() {
	var t T
	t.Ptr()
	t.Val()
	Plain()
	f := Plain
	f()
	_ = len("x")
}
`

// loadHelperFixture type-checks the fixture and returns its unit plus the
// driver that ran over it.
func loadHelperFixture(t *testing.T) (*analysis.Unit, *analysis.Loader) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "q.go"), []byte(helperFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	l := analysis.NewLoader(dir)
	u, err := l.LoadDir(dir, analysis.ModulePath+"/fixture/q")
	if err != nil {
		t.Fatal(err)
	}
	return u, l
}

// TestTypeHelpers covers the type-query surface every analyzer builds on:
// callee resolution, receiver and named-type paths, map unwrapping and
// method-set lookup.
func TestTypeHelpers(t *testing.T) {
	u, l := loadHelperFixture(t)
	if l.Fset() == nil {
		t.Fatal("loader has no file set")
	}
	if !analysis.IsModulePkg(u.Pkg.Path()) || analysis.IsModulePkg("example.com/other") {
		t.Errorf("IsModulePkg misclassified %q", u.Pkg.Path())
	}

	scope := u.Pkg.Scope()
	tObj := scope.Lookup("T").Type()
	named := tObj.(*types.Named)

	var keys []string
	var callees []*types.Func
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := analysis.CalleeFunc(u.Info, call); fn != nil {
					callees = append(callees, fn)
					keys = append(keys, analysis.FuncKey(fn))
				}
			}
			return true
		})
	}
	// t.Ptr(), t.Val(), Plain() resolve; f() (function value) and len (builtin)
	// must not.
	if len(callees) != 3 {
		t.Fatalf("resolved %d callees %v, want 3", len(callees), keys)
	}
	pkg := u.Pkg.Path()
	wantKeys := []string{pkg + ".(T).Ptr", pkg + ".(T).Val", pkg + ".Plain"}
	for i, want := range wantKeys {
		if keys[i] != want {
			t.Errorf("FuncKey[%d] = %q, want %q", i, keys[i], want)
		}
	}

	ptrMethod, valMethod, plain := callees[0], callees[1], callees[2]
	if analysis.RecvNamed(ptrMethod) != named || analysis.RecvNamed(valMethod) != named {
		t.Error("RecvNamed did not erase receiver pointerness to T")
	}
	if analysis.RecvNamed(plain) != nil {
		t.Error("RecvNamed(Plain) != nil")
	}
	if !analysis.IsMethodOn(ptrMethod, pkg, "T") || analysis.IsMethodOn(plain, pkg, "T") {
		t.Error("IsMethodOn misclassified")
	}
	if !analysis.IsPkgFunc(plain, pkg, "Plain") || analysis.IsPkgFunc(ptrMethod, pkg, "Ptr") {
		t.Error("IsPkgFunc misclassified")
	}

	if p, n := analysis.NamedPath(types.NewPointer(tObj)); p != pkg || n != "T" {
		t.Errorf("NamedPath(*T) = %q.%q", p, n)
	}
	if p, n := analysis.NamedPath(types.Typ[types.Int]); p != "" || n != "" {
		t.Errorf("NamedPath(int) = %q.%q, want empty", p, n)
	}

	mType := scope.Lookup("M").Type()
	if analysis.MapType(mType) == nil {
		t.Error("MapType did not resolve named map M")
	}
	if analysis.MapType(tObj) != nil || analysis.MapType(nil) != nil {
		t.Error("MapType resolved a non-map")
	}
}

// TestFactPropagation covers the fact store end to end: an analyzer exports
// facts keyed by FuncKey while running and reads them back, and the driver
// exposes the store for assertions.
func TestFactPropagation(t *testing.T) {
	u, _ := loadHelperFixture(t)
	factAnalyzer := &analysis.Analyzer{
		Name: "facts",
		Doc:  "exports a fact per function declaration",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					fn := pass.TypesInfo.Defs[fd.Name].(*types.Func)
					pass.ExportFact(analysis.FuncKey(fn), fd.Name.Name)
				}
			}
			if _, ok := pass.Fact(pass.Pkg.Path() + ".Plain"); !ok {
				pass.Reportf(pass.Files[0].Pos(), "own fact not readable")
			}
			if _, ok := pass.Fact("no.such/pkg.Missing"); ok {
				pass.Reportf(pass.Files[0].Pos(), "phantom fact")
			}
			return nil
		},
	}
	d := analysis.NewDriver(factAnalyzer)
	findings, err := d.Run([]*analysis.Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("unexpected findings: %v", findings)
	}
	keys := d.Facts().Keys("facts")
	// Five func decls: Ptr, Val, GobEncode, Plain, Use.
	if len(keys) != 5 {
		t.Errorf("exported %d facts %v, want 5", len(keys), keys)
	}
	if v, ok := d.Facts().Keys("other"), d.Facts(); len(v) != 0 || ok == nil {
		t.Errorf("foreign analyzer namespace not empty: %v", v)
	}
}

// TestHasDirective covers doc-comment directive detection, including the
// prefix-match trap (//dice:lease must not match //dice:leasebalance).
func TestHasDirective(t *testing.T) {
	doc := &ast.CommentGroup{List: []*ast.Comment{
		{Text: "// Lease acquires a clone."},
		{Text: "//dice:lease"},
	}}
	if !analysis.HasDirective(doc, "lease") {
		t.Error("exact directive not found")
	}
	if analysis.HasDirective(doc, "leas") {
		t.Error("prefix matched a longer directive name")
	}
	argDoc := &ast.CommentGroup{List: []*ast.Comment{{Text: "//dice:fieldpin node.RouterStats"}}}
	if !analysis.HasDirective(argDoc, "fieldpin") {
		t.Error("directive with args not found")
	}
	if analysis.HasDirective(argDoc, "fieldpinned") {
		t.Error("longer name matched shorter directive")
	}
	if analysis.HasDirective(nil, "lease") {
		t.Error("nil doc group matched")
	}
}
