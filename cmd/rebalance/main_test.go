package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		alg string
		set []string
		ok  bool
	}{
		{"greedy", []string{"k"}, true},
		{"greedy", []string{"budget"}, false},
		{"greedy", []string{"k", "eps"}, false},
		{"mpartition", []string{"k"}, true},
		{"mpartition", []string{"budget"}, false},
		{"budget", []string{"budget"}, true},
		{"budget", []string{"k"}, false},
		{"ptas", []string{"budget", "eps"}, true},
		{"ptas", []string{"budget", "eps", "workers"}, false},
		{"ptas", []string{"k"}, false},
		{"exact", []string{"k"}, true},
		{"exact", []string{"budget"}, false},
		{"exact-budget", []string{"budget"}, true},
		{"exact-budget", []string{"k"}, false},
		{"hs-ptas", []string{"eps"}, true},
		{"hs-ptas", []string{"budget"}, false},
		{"lpt", nil, true},
		{"lpt", []string{"k"}, false},
		{"frontier", []string{"workers"}, true},
		{"frontier", []string{"eps"}, false},
		{"nope", nil, false},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, f := range c.set {
			set[f] = true
		}
		_, err := lookup(c.alg, set)
		if (err == nil) != c.ok {
			t.Errorf("lookup(%q, %v) = %v, want ok=%v", c.alg, c.set, err, c.ok)
		}
	}
}

// TestNonTuningFlagsAlwaysPass pins that validation only polices the
// per-algorithm tuning flags: -timeout, -show, -trace and friends apply
// to every algorithm.
func TestNonTuningFlagsAlwaysPass(t *testing.T) {
	for _, alg := range engine.Names() {
		set := map[string]bool{"timeout": true, "show": true, "trace": true, "metrics": true}
		if _, err := lookup(alg, set); err != nil {
			t.Errorf("lookup(%q, non-tuning flags) = %v, want nil", alg, err)
		}
	}
}

// TestRegistryCoversCLIAlgorithms pins the CLI's algorithm surface: a
// new solver must be added here (and to the -list golden) deliberately,
// and a dropped one is an API break, not an accident.
func TestRegistryCoversCLIAlgorithms(t *testing.T) {
	want := []string{
		"budget", "conflict", "constrained", "exact", "exact-budget",
		"frontier", "gap", "greedy", "hs-ptas", "lpt", "mpartition",
		"multifit", "ptas",
	}
	got := engine.Names()
	if len(got) != len(want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v, want %v", got, want)
		}
	}
}

// TestListGolden pins the exact `rebalance -list` output. Regenerate
// with `go test ./cmd/rebalance -run ListGolden -update` after a
// deliberate registry change.
func TestListGolden(t *testing.T) {
	got := engine.ListText()
	path := filepath.Join("testdata", "list.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-list output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestUsageMentionsEveryAlgorithm keeps the generated usage text honest:
// every registered solver appears with its flag set.
func TestUsageMentionsEveryAlgorithm(t *testing.T) {
	usage := engine.UsageText()
	for _, s := range engine.Specs() {
		if !containsLine(usage, s.Name) {
			t.Errorf("usage text missing algorithm %q:\n%s", s.Name, usage)
		}
	}
}

func containsLine(text, name string) bool {
	for i := 0; i+len(name) <= len(text); i++ {
		if text[i:i+len(name)] == name {
			return true
		}
	}
	return false
}
