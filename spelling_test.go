package hsp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneSpellingPerSolver: every solver has exactly one exported entry
// point, context first and workspace last. No exported function or
// method in the solver packages or the root package may end in Ctx or
// WS, since such a name is a second spelling of a solver, and every
// exported package-level function of a solver package whose first
// parameter is a context.Context must take a *…Workspace last. The one
// exception is approx.TwoApproxCtx, a deprecated wrapper kept for the
// benchmark module.
func TestOneSpellingPerSolver(t *testing.T) {
	allowed := map[string]bool{"approx.TwoApproxCtx": true}
	files := []string{"hsp.go"}
	for _, pkg := range []string{"lp", "relax", "exact", "approx", "unrelated", "memcap", "rt"} {
		m, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(m) == 0 {
			t.Fatalf("no Go files in internal/%s", pkg)
		}
		files = append(files, m...)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			checked++
			name := fn.Name.Name
			if f.Name.Name != "hsp" && fn.Recv == nil && !allowed[f.Name.Name+"."+name] &&
				takesContext(fn.Type.Params) && !endsInWorkspace(fn.Type.Params) {
				t.Errorf("%s: %s.%s takes a context but no *Workspace last; use the (ctx, …, ws) form",
					fset.Position(fn.Pos()), f.Name.Name, name)
			}
			if !strings.HasSuffix(name, "Ctx") && !strings.HasSuffix(name, "WS") {
				continue
			}
			if allowed[f.Name.Name+"."+name] {
				continue
			}
			t.Errorf("%s: exported %s.%s is a second spelling; fold it into the (ctx, …, ws) entry point",
				fset.Position(fn.Pos()), f.Name.Name, name)
		}
	}
	if checked == 0 {
		t.Fatal("no exported functions found; the file list is stale")
	}
}

// takesContext reports whether the first parameter is a context.Context.
func takesContext(params *ast.FieldList) bool {
	if params == nil || len(params.List) == 0 {
		return false
	}
	sel, ok := params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

// endsInWorkspace reports whether the last parameter is a pointer to a
// type named Workspace, from this package or another.
func endsInWorkspace(params *ast.FieldList) bool {
	star, ok := params.List[len(params.List)-1].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.Ident:
		return x.Name == "Workspace"
	case *ast.SelectorExpr:
		return x.Sel.Name == "Workspace"
	}
	return false
}
