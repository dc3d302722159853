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
// WS, since such a name is a second spelling of a solver. The one
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
