package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpanTree builds a request → queue + cache → solve span tree and
// checks the kept trace records parent linkage, names, and order
// (children end before the root).
func TestSpanTree(t *testing.T) {
	st := NewSpanTracer(SpanConfig{SampleRate: 1})
	ctx, root := st.StartRequest(context.Background(), "request", "req-1")
	if root == nil {
		t.Fatal("StartRequest returned nil span on enabled tracer")
	}
	root.SetAttr(String("solver", "greedy"))

	_, qs := StartSpan(ctx, "queue")
	qs.End()

	cctx, cs := StartSpan(ctx, "cache")
	cs.SetAttr(String("outcome", "miss"))
	_, ss := StartSpan(cctx, "solve")
	ss.SetAttr(String("solver", "greedy"), Int("n", 12), Bool("hit", false))
	ss.End()
	cs.End()
	root.End()

	traces := st.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != "req-1" || tr.Root != "request" {
		t.Fatalf("trace identity = %q/%q, want req-1/request", tr.TraceID, tr.Root)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(tr.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	reqSp := byName["request"]
	if reqSp.ParentID != 0 || reqSp.SpanID != 1 {
		t.Errorf("root span ids = (%d parent %d), want (1 parent 0)", reqSp.SpanID, reqSp.ParentID)
	}
	if byName["queue"].ParentID != reqSp.SpanID {
		t.Errorf("queue parent = %d, want root %d", byName["queue"].ParentID, reqSp.SpanID)
	}
	if byName["cache"].ParentID != reqSp.SpanID {
		t.Errorf("cache parent = %d, want root %d", byName["cache"].ParentID, reqSp.SpanID)
	}
	if byName["solve"].ParentID != byName["cache"].SpanID {
		t.Errorf("solve parent = %d, want cache %d", byName["solve"].ParentID, byName["cache"].SpanID)
	}
	// Root ends last, so it is the final record.
	if tr.Spans[len(tr.Spans)-1].Name != "request" {
		t.Errorf("root is not the last span: %v", tr.Spans)
	}
	// Attrs marshal as an ordered JSON object.
	buf, err := json.Marshal(byName["solve"].Attrs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(buf), `{"solver":"greedy","n":12,"hit":false}`; got != want {
		t.Errorf("attrs JSON = %s, want %s", got, want)
	}
}

// TestSpanSampling checks the two keep paths: rate 0 drops fast traces,
// and the slow threshold keeps them regardless of rate.
func TestSpanSampling(t *testing.T) {
	st := NewSpanTracer(SpanConfig{SampleRate: 0, SlowThreshold: time.Hour})
	_, root := st.StartRequest(context.Background(), "request", "")
	root.End()
	if n := len(st.Traces()); n != 0 {
		t.Fatalf("rate-0 fast trace kept (%d traces)", n)
	}

	sink := New()
	st = NewSpanTracer(SpanConfig{SampleRate: 0, SlowThreshold: time.Nanosecond, Obs: sink})
	_, root = st.StartRequest(context.Background(), "request", "")
	time.Sleep(time.Millisecond)
	root.End()
	traces := st.Traces()
	if len(traces) != 1 || !traces[0].Slow {
		t.Fatalf("slow trace not kept/flagged: %+v", traces)
	}
	snap := sink.Snapshot()
	if snap.Counters["trace.started"] != 1 || snap.Counters["trace.kept"] != 1 || snap.Counters["trace.slow"] != 1 {
		t.Errorf("trace counters = %v, want started/kept/slow all 1", snap.Counters)
	}
}

// TestSpanUnsampledEnd checks the span-free half of a pre-drawn
// decision: StartSampled honours the caller's draw, and EndSpanless
// counts the request in trace.started and keeps it as one root span
// only when it was drawn or slow, whatever the tracer's own rate.
func TestSpanUnsampledEnd(t *testing.T) {
	sink := New()
	st := NewSpanTracer(SpanConfig{SampleRate: 0, SlowThreshold: time.Hour, Obs: sink})
	_, root := st.StartSampled(context.Background(), "request", "drawn", true)
	root.End()
	st.EndSpanless("request", "fast", false, time.Now(), String("solver", "greedy"))
	if traces := st.Traces(); len(traces) != 1 || traces[0].TraceID != "drawn" || traces[0].Slow {
		t.Fatalf("traces %+v, want only the sampled one", traces)
	}
	st.EndSpanless("request", "drawn-hit", true, time.Now(), String("solver", "greedy"), Bool("batch", true))
	traces := st.Traces()
	if len(traces) != 2 || traces[0].TraceID != "drawn-hit" || traces[0].Slow || len(traces[0].Spans) != 1 {
		t.Fatalf("sampled span-free request: traces %+v, want it kept as one fast single-span trace", traces)
	}
	if sp := traces[0].Spans[0]; sp.Name != "request" || sp.ParentID != 0 || len(sp.Attrs) != 2 ||
		sp.Attrs[0].Value() != "greedy" || sp.Attrs[1].Value() != true {
		t.Fatalf("sampled span-free root %+v", sp)
	}

	st = NewSpanTracer(SpanConfig{SampleRate: 1, SlowThreshold: time.Millisecond, Obs: sink})
	st.EndSpanless("request", "slow", false, time.Now().Add(-time.Second), String("solver", "greedy"))
	traces = st.Traces()
	if len(traces) != 1 || !traces[0].Slow || traces[0].TraceID != "slow" || len(traces[0].Spans) != 1 {
		t.Fatalf("slow unsampled request: traces %+v, want one slow single-span trace", traces)
	}
	if sp := traces[0].Spans[0]; sp.Name != "request" || sp.ParentID != 0 || sp.DurationNS < int64(time.Second) ||
		len(sp.Attrs) != 1 || sp.Attrs[0].Value() != "greedy" {
		t.Fatalf("slow unsampled root %+v", sp)
	}
	c := sink.Snapshot().Counters
	if c["trace.started"] != 4 || c["trace.kept"] != 3 || c["trace.slow"] != 1 {
		t.Errorf("trace counters = %v, want started 4, kept 3, slow 1", c)
	}

	var off *SpanTracer
	if off.Sample() {
		t.Error("a nil tracer sampled a request")
	}
	off.EndSpanless("request", "x", true, time.Now(), String("solver", "greedy")) // must not panic
}

// TestSpanSampleRate checks the splitmix decision realizes an
// approximate fraction.
func TestSpanSampleRate(t *testing.T) {
	st := NewSpanTracer(SpanConfig{SampleRate: 0.25, RingSize: 4096})
	const n = 4000
	for i := 0; i < n; i++ {
		_, root := st.StartRequest(context.Background(), "r", "")
		root.End()
	}
	kept := len(st.Traces())
	if kept < n/8 || kept > n/2 {
		t.Errorf("rate 0.25 kept %d of %d traces", kept, n)
	}
}

// TestSpanRingWraps checks the ring retains only the newest RingSize
// traces, newest first.
func TestSpanRingWraps(t *testing.T) {
	st := NewSpanTracer(SpanConfig{SampleRate: 1, RingSize: 3})
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		_, root := st.StartRequest(context.Background(), "request", id)
		root.End()
	}
	traces := st.Traces()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(traces))
	}
	got := []string{traces[0].TraceID, traces[1].TraceID, traces[2].TraceID}
	if got[0] != "e" || got[1] != "d" || got[2] != "c" {
		t.Errorf("ring order = %v, want [e d c]", got)
	}
}

// TestSpanNilSafety: every surface must be a no-op on nil tracers, nil
// spans and span-free contexts.
func TestSpanNilSafety(t *testing.T) {
	var st *SpanTracer
	ctx, root := st.StartRequest(context.Background(), "request", "id")
	if root != nil {
		t.Fatal("nil tracer minted a span")
	}
	if st.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if got := st.Traces(); got == nil || len(got) != 0 {
		t.Errorf("nil tracer Traces() = %v, want empty non-nil", got)
	}
	ctx2, sp := StartSpan(ctx, "child")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan on span-free ctx must return (ctx, nil)")
	}
	sp.SetAttr(String("k", "v"))
	sp.End()
	sp.End()
	if sp.Duration() != 0 || sp.TraceID() != "" {
		t.Error("nil span leaked state")
	}
	if got := AdoptSpan(context.Background(), ctx); got != context.Background() {
		t.Error("AdoptSpan from span-free src must return base unchanged")
	}
}

// TestAdoptSpan grafts a request's span linkage onto an unrelated base
// context (the single-flight pattern) and checks the child lands in the
// request's trace.
func TestAdoptSpan(t *testing.T) {
	st := NewSpanTracer(SpanConfig{SampleRate: 1})
	reqCtx, root := st.StartRequest(context.Background(), "request", "rid")
	flightCtx := AdoptSpan(context.Background(), reqCtx)
	_, solve := StartSpan(flightCtx, "solve")
	solve.End()
	root.End()
	traces := st.Traces()
	if len(traces) != 1 || len(traces[0].Spans) != 2 {
		t.Fatalf("adopted span missing from trace: %+v", traces)
	}
	if traces[0].Spans[0].Name != "solve" || traces[0].Spans[0].ParentID != 1 {
		t.Errorf("adopted span = %+v, want solve with parent 1", traces[0].Spans[0])
	}
}

// TestSpanAfterCommitDropped: a straggler span ending after the root
// committed must not mutate the kept trace.
func TestSpanAfterCommitDropped(t *testing.T) {
	st := NewSpanTracer(SpanConfig{SampleRate: 1})
	ctx, root := st.StartRequest(context.Background(), "request", "rid")
	_, late := StartSpan(ctx, "late")
	root.End()
	late.End()
	traces := st.Traces()
	if len(traces) != 1 || len(traces[0].Spans) != 1 {
		t.Fatalf("straggler span leaked into committed trace: %+v", traces)
	}
}

// TestSpanEmitsThroughTracer: kept traces re-emit each span as a "span"
// event on the configured Tracer, with parent linkage and attrs
// flattened into the fields.
func TestSpanEmitsThroughTracer(t *testing.T) {
	var ct CollectTracer
	st := NewSpanTracer(SpanConfig{SampleRate: 1, Tracer: &ct})
	ctx, root := st.StartRequest(context.Background(), "request", "rid")
	_, child := StartSpan(ctx, "solve")
	child.SetAttr(String("solver", "greedy"))
	child.End()
	root.End()
	evs := ct.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Event != "span" {
			t.Errorf("event name = %q, want span", ev.Event)
		}
		if ev.Fields["trace"] != "rid" {
			t.Errorf("event trace = %v, want rid", ev.Fields["trace"])
		}
	}
	if evs[0].Fields["attr.solver"] != "greedy" {
		t.Errorf("child attrs not flattened: %v", evs[0].Fields)
	}
	if evs[0].Fields["parent"] != uint64(1) {
		t.Errorf("child parent = %v, want 1", evs[0].Fields["parent"])
	}
}

// TestNewTraceID checks shape and uniqueness.
func TestNewTraceID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 || strings.ToLower(id) != id {
			t.Fatalf("trace id %q is not 16 lowercase hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

// TestDisabledTracingAllocs pins the acceptance requirement: with
// tracing disabled the span surfaces on the solve hot path allocate
// nothing.
func TestDisabledTracingAllocs(t *testing.T) {
	ctx := context.Background()
	var st *SpanTracer
	allocs := testing.AllocsPerRun(1000, func() {
		c, root := st.StartRequest(ctx, "request", "")
		c2, sp := StartSpan(c, "solve")
		if sp != nil {
			sp.SetAttr(String("solver", "greedy"))
		}
		sp.End()
		_ = AdoptSpan(ctx, c2)
		root.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkSpanDisabled measures the disabled-path cost (should be a
// few context lookups, 0 allocs).
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "solve")
		if sp != nil {
			sp.SetAttr(String("solver", "greedy"))
		}
		sp.End()
	}
}

// BenchmarkSpanEnabled measures the full start/attr/end cost of one
// child span on a sampled trace.
func BenchmarkSpanEnabled(b *testing.B) {
	st := NewSpanTracer(SpanConfig{SampleRate: 1, RingSize: 8})
	ctx, root := st.StartRequest(context.Background(), "request", "bench")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "solve")
		if sp != nil {
			sp.SetAttr(String("solver", "greedy"))
		}
		sp.End()
	}
}
