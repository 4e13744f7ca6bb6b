package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Metric catalogue: the names and units BENCHMARK.json declares. Every
// run reports every name of its kind; a layer the workload bypasses
// reads 0 (and says so in its report line).
var (
	endToEndMetrics = []metricDef{
		{"latency_p50_ms", "ms"}, {"cpu_ms_per_req", "ms"}, {"makespan_ratio", "ratio"},
		{"heap_live_mb", "MB"}, {"setup_s", "s"},
	}
	perLayerMetrics = []metricDef{
		{"client.throughput_rps", "1/s"}, {"client.latency_p90_ms", "ms"}, {"client.latency_p99_ms", "ms"},
		{"router.hop_p50_us", "us"}, {"router.hop_p99_us", "us"}, {"router.failovers", "count"},
		{"server.self_p50_us", "us"}, {"server.fastpath_share", "ratio"}, {"server.req_kb", "KiB"},
		{"transport.residual_p50_us", "us"},
		{"dispatch.queue_p50_us", "us"}, {"dispatch.queue_p99_us", "us"}, {"dispatch.rejected_ratio", "ratio"},
		{"dispatch.session_self_p50_us", "us"}, {"dispatch.do_p50_us", "us"},
		{"cache.hit_ratio", "ratio"}, {"cache.coalesced_ratio", "ratio"}, {"cache.self_p50_us", "us"},
		{"cache.key_p50_us", "us"}, {"cache.evictions", "count"},
		{"engine.solve_p50_us", "us"}, {"engine.solve_p99_us", "us"}, {"engine.solves", "count"},
		{"session.apply_p50_us", "us"}, {"session.apply_p99_us", "us"}, {"session.moves_per_delta", "moves"},
		{"obs.scrape_ms", "ms"},
		{"runtime.allocs_per_req", "count"}, {"runtime.gc_pause_ms_per_s", "ms/s"},
		{"gen.late_p99_ms", "ms"}, {"trace.overhead_p50_ratio", "ratio"},
	}
)

type metricDef struct{ name, unit string }

// report collects metric values and prints one line per metric with
// its sample count.
type report struct {
	out  io.Writer
	vals map[string]metric
}

func newReport(out io.Writer) *report { return &report{out: out, vals: map[string]metric{}} }

// put records a metric; n > 0 is the sample count behind it.
func (r *report) put(name string, v float64, unit string, n int) {
	r.vals[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		fmt.Fprintf(r.out, "metric %-30s %14.6f %-6s n=%d\n", name, v, unit, n)
	} else {
		fmt.Fprintf(r.out, "metric %-30s %14.6f %s\n", name, v, unit)
	}
}

// note prints a report line that is not a metric.
func (r *report) note(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// pick returns the declared metrics of one kind; a per-layer metric
// the run did not measure (its layer was bypassed) reads 0.
func (r *report) pick(traced bool) map[string]metric {
	list := endToEndMetrics
	if traced {
		list = perLayerMetrics
	}
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := r.vals[m.name]
		if !ok {
			r.note("metric %-30s %14.6f %-6s (layer bypassed)", m.name, 0.0, m.unit)
			v = metric{Value: 0, Unit: m.unit}
		}
		out[m.name] = v
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// tailSamples is the least number of samples a window needs for its
// p99 to rest on at least ten samples beyond it.
const tailSamples = 1000

// latency_p50_ms is taken over windows of at least medianWindow that
// hold about medianSamples requests each.
const (
	medianSamples = 100
	medianWindow  = 250 * time.Millisecond
)

// windowed buckets the ok samples by at(s)/width into consecutive
// windows, dropping the last, partial one.
func windowed(samples []sample, width time.Duration, at func(*sample) int64) [][]*sample {
	var wins [][]*sample
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		w := int(at(s) / int64(width))
		for len(wins) <= w {
			wins = append(wins, nil)
		}
		wins[w] = append(wins[w], s)
	}
	if len(wins) > 1 {
		wins = wins[:len(wins)-1]
	}
	return wins
}

// windowQuantiles returns the q-quantile latency of each window of
// width over the open loop's due times.
func windowQuantiles(open []sample, width time.Duration, q float64) []float64 {
	var qs []float64
	for _, w := range windowed(open, width, func(s *sample) int64 { return s.due }) {
		wl := make([]float64, len(w))
		for i, s := range w {
			wl[i] = ms(s.latency())
		}
		qs = append(qs, quantile(wl, q))
	}
	return qs
}

// endToEnd computes the metrics a user of the service sees. The
// client-side capacity and latency tail are computed here too, but are
// reported as unbounded per-layer metrics: on the 2-vCPU reference host
// they swung by 25-80% between runs of the same code, beyond the
// largest bound a gate may use. Throughput is the median over
// one-second windows of the closed loop; the p90 and p99 are medians
// over equal windows of the open loop, as many as give each at least
// tailSamples requests. latency_p50_ms is the first quartile of the
// medians of short open-loop windows: a burst of load from elsewhere on
// a shared host slows every request in the windows it covers, and the
// first quartile stays clear of it unless it covers most of the loop,
// while a change to the program moves every window. makespan_ratio
// counts each distinct input of the open loop once.
func endToEnd(r *report, window time.Duration, closed, open *phaseRun, setups []float64, attempted, failed int) {
	var tput []float64
	for _, w := range windowed(closed.samples, time.Second, func(s *sample) int64 { return s.done }) {
		tput = append(tput, float64(len(w)))
	}
	r.put("client.throughput_rps", quantile(tput, 0.5), "1/s", len(tput))
	r.note("throughput over the whole closed loop %.1f/s (%d ok in %.2f s)",
		float64(closed.okCount())/closed.seconds(), closed.okCount(), closed.seconds())
	var lat, ratio []float64
	seen := map[int]bool{}
	for i := range open.samples {
		s := &open.samples[i]
		if s.err != nil {
			continue
		}
		lat = append(lat, ms(s.latency()))
		if s.input < 0 || !seen[s.input] {
			seen[s.input] = true
			ratio = append(ratio, s.ratio)
		}
	}
	width := window / time.Duration(max(1, len(lat)/tailSamples))
	p90s := windowQuantiles(open.samples, width, 0.90)
	p99s := windowQuantiles(open.samples, width, 0.99)
	medWidth := max(medianWindow, window/time.Duration(max(1, len(lat)/medianSamples)))
	p50s := windowQuantiles(open.samples, medWidth, 0.5)
	r.put("latency_p50_ms", quantile(p50s, 0.25), "ms", len(p50s))
	r.note("latency_p50_ms is the first quartile of %d per-window medians over %v windows; over the whole open loop p50 %.3f ms (n=%d)",
		len(p50s), medWidth, quantile(lat, 0.5), len(lat))
	r.put("client.latency_p90_ms", quantile(p90s, 0.5), "ms", len(p90s))
	r.put("client.latency_p99_ms", quantile(p99s, 0.5), "ms", len(p99s))
	r.note("client.latency_p90_ms and client.latency_p99_ms are medians of %d per-window quantiles over %v windows; over the whole open loop p90 %.3f ms, p99 %.3f ms (n=%d)",
		len(p99s), width, quantile(lat, 0.90), quantile(lat, 0.99), len(lat))
	r.put("makespan_ratio", mean(ratio), "ratio", len(ratio))
	r.put("cpu_ms_per_req", ms(int64(open.cpu))/float64(max(len(lat), 1)), "ms", len(lat))
	r.put("setup_s", quantile(setups, 0.5), "s", len(setups))
	r.note("error_ratio %.6f (%d failed of %d attempted over warm-up, closed and open loops)",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)
	var slip []float64
	for i := range open.samples {
		slip = append(slip, ms(open.samples[i].slip))
	}
	late := quantile(slip, 0.99)
	r.put("gen.late_p99_ms", late, "ms", len(slip))
	// The generator, not the program, set the pace when its own slip
	// (due and a sender free, but not yet sent) delays the median
	// request by more than a tenth of its latency.
	if slip50, p50 := quantile(slip, 0.5), quantile(lat, 0.5); slip50 > 0.1*p50 {
		r.note("WARNING generator-bound: generator slip p50 %.3f ms exceeds a tenth of the open-loop p50 latency %.3f ms", slip50, p50)
	}
}

// perLayer computes the traced run's per-layer metrics from the
// recorded spans, the responses' timing and cache fields, deltas of the
// shards' /metrics counters, and the ladder pass. A non-nil error is a
// correctness failure of the ladder cross-checks.
func perLayer(ctx context.Context, r *report, sp spec, seed uint64, l load, st *stack, g *gen,
	spans *spanLog, closed, open *phaseRun, counters map[string]float64) error {
	byReq := spans.byRequest()
	var hop, self, resid, queue, cacheSelf, reqKB, tracedLat, plainLat []float64
	var hits, fast, misses, coalesced, moves, deltas, rebalances int
	for i := range open.samples {
		s := &open.samples[i]
		if s.err != nil {
			continue
		}
		reqKB = append(reqKB, float64(s.reqBytes)/1024)
		moves += s.moves
		deltas++
		if s.rebalanced {
			rebalances++
		}
		switch s.cache {
		case "hit":
			hits++
			if s.queueNS == 0 {
				fast++
			}
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		}
		if s.cache != "" {
			queue = append(queue, float64(s.queueNS)/1e3)
			cacheSelf = append(cacheSelf, float64(s.cacheNS)/1e3)
		}
		if !strings.HasPrefix(s.rid, tracedPrefix) {
			plainLat = append(plainLat, ms(s.latency()))
			continue
		}
		tracedLat = append(tracedLat, ms(s.latency()))
		sps := byReq[s.rid]
		shard, ok := sps["shard"]
		if !ok {
			continue
		}
		top := shard
		if rt, ok := sps["router"]; ok {
			hop = append(hop, micros(rt-shard))
			top = rt
		}
		self = append(self, micros(shard)-float64(s.queueNS+s.cacheNS+s.solveNS)/1e3)
		resid = append(resid, micros(time.Duration(s.done-s.sent)-top))
	}
	if len(self) == 0 {
		return errNoSpans
	}
	if sp.router {
		r.put("router.hop_p50_us", quantile(hop, 0.5), "us", len(hop))
		r.put("router.hop_p99_us", quantile(hop, 0.99), "us", len(hop))
		r.put("router.failovers", counters["router_rerouted"]+counters["router_transport_errors"], "count", 0)
	}
	r.put("server.req_kb", mean(reqKB), "KiB", len(reqKB))
	r.put("transport.residual_p50_us", quantile(resid, 0.5), "us", len(resid))
	ops := float64(len(closed.samples) + len(open.samples))
	r.put("dispatch.rejected_ratio", counters["server_rejected_full"]/ops, "ratio", 0)

	var lad ladder
	var lerr error
	switch ld := l.(type) {
	case *sessionLoad:
		lad, lerr = ladderSessions(ctx, ld.openSet[:])
		// Sessions report no phase timing: the handler's self time is
		// its span less the dispatch core's time for the same deltas.
		coreP50 := quantile(lad.sessionDelta, 0.5)
		r.put("server.self_p50_us", quantile(self, 0.5)-coreP50, "us", len(self))
		r.put("dispatch.session_self_p50_us", coreP50-quantile(lad.apply, 0.5), "us", len(lad.apply))
		r.put("session.apply_p50_us", quantile(lad.apply, 0.5), "us", len(lad.apply))
		r.put("session.apply_p99_us", quantile(lad.apply, 0.99), "us", len(lad.apply))
		r.put("session.moves_per_delta", float64(moves)/float64(max(deltas, 1)), "moves", deltas)
		r.put("engine.solves", float64(rebalances), "count", 0)
	case *hotLoad:
		lad, lerr = ladderSolves(ctx, ld.keys)
	case *coldLoad:
		inputs := make([]*solveInput, ladderSolve)
		for j := range inputs {
			inputs[j] = ld.input(phaseOpen, j)
		}
		lad, lerr = ladderSolves(ctx, inputs)
	}
	if _, ok := l.(*sessionLoad); !ok {
		r.put("server.self_p50_us", quantile(self, 0.5), "us", len(self))
		lookups := hits + misses + coalesced
		r.put("server.fastpath_share", float64(fast)/float64(max(hits, 1)), "ratio", hits)
		r.put("dispatch.queue_p50_us", quantile(queue, 0.5), "us", len(queue))
		r.put("dispatch.queue_p99_us", quantile(queue, 0.99), "us", len(queue))
		r.put("dispatch.do_p50_us", quantile(lad.do, 0.5), "us", len(lad.do))
		r.put("cache.hit_ratio", float64(hits)/float64(max(lookups, 1)), "ratio", lookups)
		r.put("cache.coalesced_ratio", float64(coalesced)/float64(max(lookups, 1)), "ratio", lookups)
		r.put("cache.self_p50_us", quantile(cacheSelf, 0.5), "us", len(cacheSelf))
		r.put("cache.evictions", counters["cache_evictions"], "count", 0)
		r.put("engine.solves", counters["cache_misses"], "count", 0)
	}
	r.put("cache.key_p50_us", quantile(lad.key, 0.5), "us", len(lad.key))
	r.put("engine.solve_p50_us", quantile(lad.engine, 0.5), "us", len(lad.engine))
	r.put("engine.solve_p99_us", quantile(lad.engine, 0.99), "us", len(lad.engine))

	// Runtime cost of the open loop, whole process (servers and
	// generator share it).
	okOpen := float64(max(open.okCount(), 1))
	r.put("runtime.allocs_per_req", float64(open.mallocs)/okOpen, "count", open.okCount())
	r.put("runtime.gc_pause_ms_per_s", ms(int64(open.pauseNS))/open.seconds(), "ms/s", 0)
	r.put("obs.scrape_ms", scrapeMillis(ctx, g, st), "ms", scrapes)
	r.put("trace.overhead_p50_ratio", quantile(tracedLat, 0.5)/quantile(plainLat, 0.5)-1, "ratio", len(tracedLat))
	if err := writeSpans(spans, sp.name, seed); err != nil {
		r.note("spans not written: %v", err)
	}
	return lerr
}

// scrapes is how many /metrics fetches obs.scrape_ms takes the median of.
const scrapes = 9

// scrapeMillis times full GET /metrics fetches from the first shard.
func scrapeMillis(ctx context.Context, g *gen, st *stack) float64 {
	var xs []float64
	for i := 0; i < scrapes; i++ {
		t0 := time.Now()
		status, _, err := get(ctx, g.hc, st.shards[0].url+"/metrics")
		if err != nil || status != http.StatusOK {
			continue
		}
		xs = append(xs, float64(time.Since(t0))/1e6)
	}
	return quantile(xs, 0.5)
}
