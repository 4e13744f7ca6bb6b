package server

import (
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServerImportBoundary pins the dispatch-core extraction: the HTTP
// layer adapts wire format onto internal/dispatch and must not reach
// around it into the solution cache or the engine registry. If a
// handler needs something from those layers, the core grows a method —
// that keeps every transport (HTTP today, the router's in-process use
// tomorrow) on one set of serving semantics.
func TestServerImportBoundary(t *testing.T) {
	forbidden := map[string]string{
		"repro/internal/cache":  "the solution cache is owned by internal/dispatch",
		"repro/internal/engine": "the solver registry is owned by internal/dispatch",
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(fset, filepath.Join(".", name), nil, goparser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: unquote import %s: %v", name, imp.Path.Value, err)
			}
			if why, bad := forbidden[path]; bad {
				t.Errorf("%s imports %s — %s", name, path, why)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go files checked; is the test running in the package directory?")
	}
}
