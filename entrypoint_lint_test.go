package rebalance

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneEntryPerAlgorithm keeps each algorithm to one exported entry
// point: the root facade and the algorithm packages export no top-level
// function whose name ends in Obs, Ctx or Opts. Instrumentation and
// cancellation are parameters (a nil sink turns instrumentation off),
// not second and third spellings of the same call.
func TestOneEntryPerAlgorithm(t *testing.T) {
	dirs := []string{".", "internal/core", "internal/greedy", "internal/gap",
		"internal/lp", "internal/adversary", "internal/experiments"}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files", dir)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() {
					continue
				}
				for _, suffix := range []string{"Obs", "Ctx", "Opts"} {
					if strings.HasSuffix(fn.Name.Name, suffix) {
						t.Errorf("%s: exported %s ends in %s; take the sink or ctx as a parameter of the one entry point instead",
							fset.Position(fn.Pos()), fn.Name.Name, suffix)
					}
				}
			}
		}
	}
}
