// Package obs is the solver observability layer: counters, gauges and
// sample histograms collected in a Registry, plus a pluggable Tracer
// emitting structured events (see trace.go). It is built only on the
// standard library and designed so that disabled instrumentation costs a
// single nil pointer check on the hot path — every call site guards with
// `if sink != nil` (or sink.Tracing()) and constructs event payloads only
// inside the guard, so the no-op path performs no allocation.
//
// The metric name taxonomy is documented in DESIGN.md §"Observability";
// names are dotted `package.metric` strings (`core.probes`,
// `greedy.moves`, `lp.pivots`, `sim.policy_ns`, …).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d may be any sign, but counters are conventionally
// monotone).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-written value, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d. Concurrent Adds compose exactly, so a gauge
// that counts a population (+1 on entry, -1 on exit) cannot be left
// stale the way racing Sets of separately computed values can.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax stores v only if it exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histogramLimit caps the retained samples per histogram; beyond it a
// deterministic reservoir keeps a uniform subsample, so quantiles become
// estimates while count/sum/min/max stay exact. The cap is small (32 KiB
// per histogram) so a long-running process's heap stops growing once
// the reservoirs fill, rather than following its request count; the
// price is that quantiles of a busy histogram are estimates over 4096
// uniform samples.
const histogramLimit = 1 << 12

// Histogram records int64 samples (latencies, sizes, counts) and reports
// exact count/sum/min/max plus nearest-rank quantiles over the retained
// samples. Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	samples []int64
	rng     uint64 // xorshift state for the reservoir; deterministic
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.samples) < histogramLimit {
		h.samples = append(h.samples, v)
	} else {
		// Algorithm R with a deterministic xorshift64 generator.
		if h.rng == 0 {
			h.rng = 0x9e3779b97f4a7c15
		}
		h.rng ^= h.rng << 13
		h.rng ^= h.rng >> 7
		h.rng ^= h.rng << 17
		if i := h.rng % uint64(h.count); i < uint64(len(h.samples)) {
			h.samples[i] = v
		}
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.max }

// Retained returns the number of samples the reservoir holds; below
// Count once the histogram downsampled, making Quantile an estimate.
func (h *Histogram) Retained() int64 { h.mu.Lock(); defer h.mu.Unlock(); return int64(len(h.samples)) }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the nearest-rank q-quantile (q in [0,1]) of the
// retained samples: the value at sorted index ⌈q·n⌉−1 (clamped). Exact
// while the sample count is below the retention limit, a uniform
// subsample estimate beyond it. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantileOf(h.sortedLocked(), q)
}

// sortedLocked returns a sorted copy of the retained samples; the caller
// must hold h.mu.
func (h *Histogram) sortedLocked() []int64 {
	s := append([]int64(nil), h.samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s
}

func quantileOf(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	idx := int(float64(n)*q+0.9999999999) - 1 // ⌈q·n⌉ − 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// Registry is a named collection of metrics. Metric accessors get or
// create; the same name always returns the same metric. Safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the frozen summary of one histogram. Count is
// the true observation count and Retained the reservoir's sample count;
// they diverge once the histogram downsampled (Retained < Count), at
// which point the quantiles are estimates over the retained uniform
// subsample while Count/Sum/Min/Max stay exact.
type HistogramSnapshot struct {
	Count    int64   `json:"count"`
	Retained int64   `json:"retained"`
	Sum      int64   `json:"sum"`
	Min      int64   `json:"min"`
	Max      int64   `json:"max"`
	Mean     float64 `json:"mean"`
	P50      int64   `json:"p50"`
	P90      int64   `json:"p90"`
	P99      int64   `json:"p99"`
}

// Downsampled reports whether the reservoir dropped samples, making the
// quantiles subsample estimates rather than exact nearest-rank values.
func (h HistogramSnapshot) Downsampled() bool { return h.Retained < h.Count }

// Snapshot is a frozen, JSON-serializable view of a registry, with an
// optional build-info stamp. Map keys marshal in sorted order, so the
// encoding is deterministic for a fixed metric state.
type Snapshot struct {
	Version    string                       `json:"version,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the current metric values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			h.mu.Lock()
			sorted := h.sortedLocked()
			hs := HistogramSnapshot{
				Count: h.count, Retained: int64(len(h.samples)),
				Sum: h.sum, Min: h.min, Max: h.max,
				P50: quantileOf(sorted, 0.50),
				P90: quantileOf(sorted, 0.90),
				P99: quantileOf(sorted, 0.99),
			}
			if h.count > 0 {
				hs.Mean = float64(h.sum) / float64(h.count)
			}
			h.mu.Unlock()
			s.Histograms[name] = hs
		}
	}
	return s
}

// WriteJSON writes the snapshot as a single JSON object.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// WriteSummary writes a human-readable end-of-run summary, metrics
// sorted by name, suitable for stderr under a -metrics flag.
func (s Snapshot) WriteSummary(w io.Writer) error {
	if s.Version != "" {
		if _, err := fmt.Fprintf(w, "# metrics (%s)\n", s.Version); err != nil {
			return err
		}
	} else if _, err := fmt.Fprintln(w, "# metrics"); err != nil {
		return err
	}
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%-28s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%-28s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		// When the reservoir downsampled, say so: the quantiles are then
		// estimates over Retained of Count samples, not exact ranks.
		approx := ""
		if h.Downsampled() {
			approx = fmt.Sprintf(" (quantiles over %d/%d retained)", h.Retained, h.Count)
		}
		if _, err := fmt.Fprintf(w, "%-28s count=%d sum=%d min=%d max=%d mean=%.2f p50=%d p90=%d p99=%d%s\n",
			name, h.Count, h.Sum, h.Min, h.Max, h.Mean, h.P50, h.P90, h.P99, approx); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sink bundles a metric registry and an optional tracer; it is the
// handle solvers accept. A nil *Sink disables all instrumentation —
// solver hot paths check exactly that before touching metrics or
// constructing event payloads. A non-nil Sink always has a non-nil
// Reg (use New/NewTracing).
type Sink struct {
	Reg *Registry
	Tr  Tracer
}

// New returns a metrics-only sink.
func New() *Sink { return &Sink{Reg: NewRegistry()} }

// NewTracing returns a sink with both metrics and the given tracer.
func NewTracing(tr Tracer) *Sink { return &Sink{Reg: NewRegistry(), Tr: tr} }

// Tracing reports whether event emission is enabled. Safe on nil.
func (s *Sink) Tracing() bool { return s != nil && s.Tr != nil }

// Emit forwards an event to the tracer if one is attached. Safe on nil,
// but hot paths should guard with Tracing() first so the Fields map is
// never built when tracing is off.
func (s *Sink) Emit(event string, fields Fields) {
	if s == nil || s.Tr == nil {
		return
	}
	s.Tr.Emit(event, fields)
}

// Count adds d to the named counter. Safe on nil; convenience for cold
// paths (hot loops should cache the *Counter).
func (s *Sink) Count(name string, d int64) {
	if s == nil {
		return
	}
	s.Reg.Counter(name).Add(d)
}

// Observe records a histogram sample. Safe on nil; convenience for cold
// paths.
func (s *Sink) Observe(name string, v int64) {
	if s == nil {
		return
	}
	s.Reg.Histogram(name).Observe(v)
}

// Snapshot freezes the sink's metrics; returns a zero Snapshot on nil.
func (s *Sink) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return s.Reg.Snapshot()
}
