package benchjson

import (
	"fmt"
	"sort"
	"strings"
)

// Gate is one benchmark under regression enforcement. AllocOnly
// exempts its wall clock: the serving-path benchmarks run the request
// through net/http/httptest, where per-op time is dominated by
// scheduler and allocator interplay outside this repository's control
// and drifts far beyond any usable tolerance on a shared machine.
// Their regression signal is allocs/op — the property the hit path
// exists to pin — which is deterministic and enforced strictly.
type Gate struct {
	Name      string
	AllocOnly bool
}

// CalibrationName is the fixed pure-CPU benchmark (module root) whose
// ratio between baseline and current snapshots measures ambient
// machine-speed drift. When both snapshots carry it, Diff scales the
// baseline's ns/op by that ratio before applying the tolerance, so a
// run that lands in a globally slow window of a time-shared machine is
// not failed for it. The scale is clamped at 1: a faster window never
// tightens the gate below the recorded baseline.
const CalibrationName = "BenchmarkCalibration"

// DefaultGate is the curated benchmark set the bench-diff regression
// gate enforces: the solver kernels whose performance this repository
// optimizes for, the session path, plus the serving path. Deliberately
// small and stable — every name here must exist in BENCH.json and in a
// fresh gated run, so adding a benchmark to the gate forces a baseline
// regeneration in the same change. The Makefile's BENCH_GATE_RE runs
// exactly these benchmarks' top-level names plus BenchmarkCalibration
// (TestBenchGateMatchesMakefile).
var DefaultGate = []Gate{
	{Name: "BenchmarkE2PartitionRatio"},
	{Name: "BenchmarkE3Scaling/greedy/n=1000"},
	{Name: "BenchmarkE3Scaling/mpartition/n=1000"},
	{Name: "BenchmarkE3Scaling/greedy/n=8000"},
	{Name: "BenchmarkE3Scaling/mpartition/n=8000"},
	{Name: "BenchmarkE4PTAS/eps=1"},
	{Name: "BenchmarkE11Ablation/binary"},
	{Name: "BenchmarkE11Ablation/incremental"},
	{Name: "BenchmarkE12Frontier"},
	{Name: "BenchmarkE15AdversaryHunt"},
	{Name: "BenchmarkSessionDelta"},
	{Name: "BenchmarkSessionColdResolve"},
	{Name: "BenchmarkServerSolveHit", AllocOnly: true},
	{Name: "BenchmarkServerSolveMiss", AllocOnly: true},
	{Name: "BenchmarkServerBatch", AllocOnly: true},
}

// Regression is one gate violation.
type Regression struct {
	Name    string  `json:"name"`
	Metric  string  `json:"metric"` // "ns/op" or "allocs/op"
	Base    float64 `json:"base"`
	Current float64 `json:"current"`
	// Limit is the largest non-failing current value.
	Limit float64 `json:"limit"`
}

// DiffReport is the outcome of comparing a fresh run against the
// committed baseline over a gate set.
type DiffReport struct {
	Regressions []Regression
	// MissingBaseline and MissingCurrent list gated names absent from
	// the respective snapshot; either is a failure, so the gate cannot
	// silently rot when benchmarks are renamed or dropped.
	MissingBaseline []string
	MissingCurrent  []string
	// TimeCompared is false when the two snapshots come from different
	// environments (goos/goarch/cpu shape): wall-clock comparisons
	// across machines are meaningless, so only allocs/op — a
	// deterministic property of the code — is enforced.
	TimeCompared bool
	// Scale is the machine-speed normalization applied to baseline
	// ns/op before the tolerance check (see CalibrationName); 1 when no
	// calibration record is available on both sides or the current
	// window is not slower.
	Scale float64
}

// Failed reports whether the gate should fail the build.
func (r DiffReport) Failed() bool {
	return len(r.Regressions) > 0 || len(r.MissingBaseline) > 0 || len(r.MissingCurrent) > 0
}

// sameEnv reports whether wall-clock numbers from the two snapshots are
// comparable. A zero NumCPU (baselines recorded before the field
// existed) is treated as unknown and fails the comparison.
func sameEnv(a, b Snapshot) bool {
	return a.GOOS == b.GOOS && a.GOARCH == b.GOARCH &&
		a.GOMAXPROCS == b.GOMAXPROCS && a.NumCPU == b.NumCPU && a.NumCPU != 0
}

// Diff compares cur against base over the gated names. tol is the
// fractional ns/op headroom (0.10 = +10%); allocs/op allows none.
// Records are matched by full benchmark name; when a name appears more
// than once (a -count=N run) ns/op takes the MINIMUM across the fresh
// run's repeats but the MEDIAN across the baseline's: the comparison
// asks "can the current code still reach the baseline's typical
// speed?". Comparing minima on both sides makes the gate un-passable
// whenever the committed baseline happened to catch one lucky
// scheduling window — observed per-benchmark spread on a time-shared
// machine is 25–75% across back-to-back repeats. Allocs/op is
// deterministic, so both sides take the minimum.
func Diff(base, cur Snapshot, gate []Gate, tol float64) DiffReport {
	gather := func(s Snapshot) map[string][]Record {
		m := make(map[string][]Record, len(s.Benchmarks))
		for _, r := range s.Benchmarks {
			m[r.Name] = append(m[r.Name], r)
		}
		return m
	}
	reduce := func(m map[string][]Record, ns func([]float64) float64) map[string]Record {
		out := make(map[string]Record, len(m))
		for name, rs := range m {
			agg := rs[0]
			times := make([]float64, len(rs))
			for i, r := range rs {
				times[i] = r.NsPerOp
				if r.AllocsPerOp < agg.AllocsPerOp {
					agg.AllocsPerOp = r.AllocsPerOp
				}
				if r.BytesPerOp < agg.BytesPerOp {
					agg.BytesPerOp = r.BytesPerOp
				}
			}
			agg.NsPerOp = ns(times)
			out[name] = agg
		}
		return out
	}
	minNs := func(ts []float64) float64 {
		m := ts[0]
		for _, t := range ts[1:] {
			if t < m {
				m = t
			}
		}
		return m
	}
	medianNs := func(ts []float64) float64 {
		s := append([]float64(nil), ts...)
		sort.Float64s(s)
		if n := len(s); n%2 == 0 {
			return (s[n/2-1] + s[n/2]) / 2
		}
		return s[len(s)/2]
	}
	bi := reduce(gather(base), medianNs)
	ci := reduce(gather(cur), minNs)
	rep := DiffReport{TimeCompared: sameEnv(base, cur), Scale: 1}
	if bc, okB := bi[CalibrationName]; okB && rep.TimeCompared {
		if cc, okC := ci[CalibrationName]; okC && bc.NsPerOp > 0 {
			if s := cc.NsPerOp / bc.NsPerOp; s > 1 {
				rep.Scale = s
			}
		}
	}
	for _, g := range gate {
		b, okB := bi[g.Name]
		c, okC := ci[g.Name]
		if !okB {
			rep.MissingBaseline = append(rep.MissingBaseline, g.Name)
		}
		if !okC {
			rep.MissingCurrent = append(rep.MissingCurrent, g.Name)
		}
		if !okB || !okC {
			continue
		}
		if rep.TimeCompared && !g.AllocOnly {
			limit := b.NsPerOp * rep.Scale * (1 + tol)
			if c.NsPerOp > limit {
				rep.Regressions = append(rep.Regressions, Regression{
					Name: g.Name, Metric: "ns/op",
					Base: b.NsPerOp, Current: c.NsPerOp, Limit: limit,
				})
			}
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			rep.Regressions = append(rep.Regressions, Regression{
				Name: g.Name, Metric: "allocs/op",
				Base: float64(b.AllocsPerOp), Current: float64(c.AllocsPerOp),
				Limit: float64(b.AllocsPerOp),
			})
		}
	}
	sort.Slice(rep.Regressions, func(i, j int) bool {
		if rep.Regressions[i].Name != rep.Regressions[j].Name {
			return rep.Regressions[i].Name < rep.Regressions[j].Name
		}
		return rep.Regressions[i].Metric < rep.Regressions[j].Metric
	})
	return rep
}

// Format renders the report for the terminal.
func (r DiffReport) Format() string {
	var b strings.Builder
	if !r.TimeCompared {
		b.WriteString("benchdiff: baseline from a different environment; ns/op not compared (allocs/op still enforced)\n")
	}
	if r.Scale > 1 {
		fmt.Fprintf(&b, "benchdiff: machine %.2fx slower than at baseline (%s); ns/op limits scaled accordingly\n",
			r.Scale, CalibrationName)
	}
	for _, name := range r.MissingBaseline {
		fmt.Fprintf(&b, "benchdiff: FAIL %s: missing from baseline (regenerate BENCH.json: make bench-json)\n", name)
	}
	for _, name := range r.MissingCurrent {
		fmt.Fprintf(&b, "benchdiff: FAIL %s: missing from this run (gated benchmark renamed or not executed)\n", name)
	}
	for _, reg := range r.Regressions {
		switch reg.Metric {
		case "ns/op":
			fmt.Fprintf(&b, "benchdiff: FAIL %s: %.0f ns/op vs baseline %.0f (limit %.0f, %+.1f%%)\n",
				reg.Name, reg.Current, reg.Base, reg.Limit, 100*(reg.Current-reg.Base)/reg.Base)
		default:
			fmt.Fprintf(&b, "benchdiff: FAIL %s: %.0f allocs/op vs baseline %.0f (no increase allowed)\n",
				reg.Name, reg.Current, reg.Base)
		}
	}
	if !r.Failed() {
		b.WriteString("benchdiff: PASS\n")
	}
	return b.String()
}
