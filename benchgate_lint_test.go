package rebalance

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchjson"
)

// benchGateRe captures the alternatives of the Makefile's
// BENCH_GATE_RE line.
var benchGateRe = regexp.MustCompile(`(?m)^BENCH_GATE_RE = \^\(([^)]*)\)\$\$$`)

// TestBenchGateMatchesMakefile pins the benchmarks `make bench-diff`
// runs (the Makefile's BENCH_GATE_RE) to the names it compares
// (benchjson.DefaultGate): the regex's alternatives must be exactly the
// gate's top-level benchmark names plus BenchmarkCalibration, which
// scales the ns/op limits. A benchmark the regex runs but the gate
// omits is measured and never compared; one the gate lists but the
// regex omits fails every bench-diff as missing from the run.
func TestBenchGateMatchesMakefile(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := benchGateRe.FindSubmatch(mk)
	if m == nil {
		t.Fatal("no `BENCH_GATE_RE = ^(...)$$` line in the Makefile; the lint regex is stale")
	}
	ran := map[string]bool{}
	for _, name := range strings.Split(string(m[1]), "|") {
		ran[name] = true
	}
	gated := map[string]bool{benchjson.CalibrationName: true}
	for _, g := range benchjson.DefaultGate {
		top, _, _ := strings.Cut(g.Name, "/")
		gated[top] = true
	}
	var notGated, notRun []string
	for name := range ran {
		if !gated[name] {
			notGated = append(notGated, name)
		}
	}
	for name := range gated {
		if !ran[name] {
			notRun = append(notRun, name)
		}
	}
	slices.Sort(notGated)
	slices.Sort(notRun)
	if len(notGated) > 0 {
		t.Errorf("BENCH_GATE_RE runs benchmarks that benchjson.DefaultGate never compares: %s",
			strings.Join(notGated, ", "))
	}
	if len(notRun) > 0 {
		t.Errorf("benchjson.DefaultGate gates benchmarks that BENCH_GATE_RE does not run: %s",
			strings.Join(notRun, ", "))
	}
}
