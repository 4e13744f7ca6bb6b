package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	rebalance "repro"
	"repro/internal/dispatch"
	"repro/internal/obs"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the server handler
// goroutine writes (slog, JSONL tracer) while the test goroutine reads,
// and a plain Buffer would race.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp
}

// TestRequestTracingE2E pins the tentpole acceptance criterion: a traced
// request produces a parent-linked span tree — request → queue + cache,
// cache → solve — retrievable from /debug/traces under the client's
// X-Request-ID.
func TestRequestTracingE2E(t *testing.T) {
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: 1})
	_, ts := newTestServer(t, Config{Workers: 1, Trace: tr})
	req := solveRequest("greedy", testInstance())
	req.K = 2
	buf, _ := json.Marshal(req)
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(buf))
	hreq.Header.Set("X-Request-ID", "trace-e2e-1")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}

	var traces TracesResponse
	getJSON(t, ts.URL+"/debug/traces", &traces)
	var trace *obs.Trace
	for i := range traces.Traces {
		if traces.Traces[i].TraceID == "trace-e2e-1" {
			trace = &traces.Traces[i]
		}
	}
	if trace == nil {
		t.Fatalf("trace trace-e2e-1 not in /debug/traces (%d traces)", len(traces.Traces))
	}
	if trace.Root != "request" {
		t.Errorf("root span = %q, want request", trace.Root)
	}
	// Index spans by name; find the root's span ID and check linkage.
	byName := map[string]obs.SpanRecord{}
	for _, sp := range trace.Spans {
		byName[sp.Name] = sp
	}
	for _, name := range []string{"request", "queue", "cache", "solve"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("span %q missing from trace; have %v", name, names(trace.Spans))
		}
	}
	root := byName["request"]
	if root.ParentID != 0 {
		t.Errorf("root parent = %d, want 0", root.ParentID)
	}
	if got := byName["queue"].ParentID; got != root.SpanID {
		t.Errorf("queue parent = %d, want root %d", got, root.SpanID)
	}
	if got := byName["cache"].ParentID; got != root.SpanID {
		t.Errorf("cache parent = %d, want root %d", got, root.SpanID)
	}
	// The engine solve runs inside the cache flight; its span is grafted
	// under the cache span, completing the request→cache→solve chain.
	if got := byName["solve"].ParentID; got != byName["cache"].SpanID {
		t.Errorf("solve parent = %d, want cache %d", got, byName["cache"].SpanID)
	}
	for _, sp := range trace.Spans {
		if sp.TraceID != "trace-e2e-1" {
			t.Errorf("span %q trace = %q, want trace-e2e-1", sp.Name, sp.TraceID)
		}
	}
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestMetricsEndpoint: after a solve, GET /metrics serves a valid
// Prometheus text exposition containing the serving families.
func TestMetricsEndpoint(t *testing.T) {
	sink := obs.New()
	_, ts := newTestServer(t, Config{Workers: 1, Obs: sink})
	req := solveRequest("greedy", testInstance())
	req.K = 2
	if resp, body := postSolve(t, ts.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateExposition(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body.String())
	}
	if n == 0 {
		t.Fatal("exposition has no samples")
	}
	for _, want := range []string{
		"server_requests 1", "server_requests_greedy 1",
		"server_queue_ns_count 1", "server_latency_ns_greedy_count 1",
		`server_solve_ns{quantile="0.5"}`,
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, body.String())
		}
	}
}

// TestMetricsEndpointNoSink: /metrics without a sink is an empty but
// valid exposition, not an error.
func TestMetricsEndpointNoSink(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if n, err := obs.ValidateExposition(resp.Body); err != nil || n != 0 {
		t.Fatalf("want empty valid exposition, got %d samples, err %v", n, err)
	}
}

// TestVersionEndpoint: /version serves the build-info stamp.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var v VersionResponse
	resp := getJSON(t, ts.URL+"/version", &v)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if v.Version != rebalance.Version() {
		t.Errorf("version = %q, want %q", v.Version, rebalance.Version())
	}
}

// TestRequestIDMintAdopt: the server adopts a client-sent X-Request-ID
// (clamped) and mints one otherwise; header and body always agree.
func TestRequestIDMintAdopt(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := solveRequest("greedy", testInstance())
	req.K = 2
	buf, _ := json.Marshal(req)

	do := func(hdr string) (*http.Response, SolveResponse) {
		t.Helper()
		hreq, _ := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(buf))
		if hdr != "" {
			hreq.Header.Set("X-Request-ID", hdr)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return resp, sr
	}

	resp, sr := do("client-id-7")
	if sr.RequestID != "client-id-7" || resp.Header.Get("X-Request-ID") != "client-id-7" {
		t.Errorf("adopted ID: body %q header %q, want client-id-7", sr.RequestID, resp.Header.Get("X-Request-ID"))
	}
	resp, sr = do("")
	if sr.RequestID == "" {
		t.Error("minted ID empty")
	}
	if sr.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("minted ID: body %q != header %q", sr.RequestID, resp.Header.Get("X-Request-ID"))
	}
	resp, sr = do(strings.Repeat("x", 500))
	if len(sr.RequestID) != maxRequestIDLen {
		t.Errorf("oversized ID clamped to %d chars, want %d", len(sr.RequestID), maxRequestIDLen)
	}
}

// TestTimingFields: every solve and every batch item reports the
// queue/cache/solve phase decomposition and its request ID.
func TestTimingFields(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	in := testInstance()
	req := solveRequest("test-sleep", in)
	resp, body := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// test-sleep works for 100ms, so engine compute must dominate.
	if sr.Timing.SolveNS < int64(50*time.Millisecond) {
		t.Errorf("solve_ns = %d, want ≥ 50ms for a 100ms solver", sr.Timing.SolveNS)
	}
	if sr.Timing.QueueNS < 0 || sr.Timing.CacheNS < 0 {
		t.Errorf("negative phase timing: %+v", sr.Timing)
	}
	// The raw JSON must carry all three keys even when zero.
	for _, key := range []string{"queue_ns", "cache_ns", "solve_ns", "request_id"} {
		if !strings.Contains(string(body), key) {
			t.Errorf("response JSON missing %q: %s", key, body)
		}
	}

	// Batch: each item gets the batch ID suffixed with its index.
	items := []SolveRequest{solveRequest("greedy", in), solveRequest("greedy", in)}
	items[0].K, items[1].K = 1, 2
	bbuf, _ := json.Marshal(BatchRequest{Requests: items})
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/batch", bytes.NewReader(bbuf))
	hreq.Header.Set("X-Request-ID", "batch-9")
	bresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	for i, item := range br.Items {
		if item.Status != http.StatusOK {
			t.Fatalf("item %d status %d: %s", i, item.Status, item.Error)
		}
		if want := fmt.Sprintf("batch-9-%d", i); item.Result.RequestID != want {
			t.Errorf("item %d request ID = %q, want %q", i, item.Result.RequestID, want)
		}
		if item.Result.Timing.SolveNS < 0 || item.Result.Timing.QueueNS < 0 {
			t.Errorf("item %d negative timing: %+v", i, item.Result.Timing)
		}
	}
}

// TestSlowRequestLog: a request over the slow threshold produces one
// structured warn line carrying the ID and phase breakdown, and bumps
// server.slow_requests.
func TestSlowRequestLog(t *testing.T) {
	var buf syncBuffer
	sink := obs.New()
	_, ts := newTestServer(t, Config{
		Workers: 1, Obs: sink,
		SlowThreshold: time.Millisecond,
		Log:           slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	req := solveRequest("test-sleep", testInstance())
	buf2, _ := json.Marshal(req)
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(buf2))
	hreq.Header.Set("X-Request-ID", "slow-1")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var line map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &line); err != nil {
		t.Fatalf("slow log not JSON: %v\n%s", err, buf.String())
	}
	if line["msg"] != "slow request" || line["request_id"] != "slow-1" || line["solver"] != "test-sleep" {
		t.Errorf("slow log line = %v", line)
	}
	if line["solve_ns"].(float64) < float64(50*time.Millisecond) {
		t.Errorf("slow log solve_ns = %v, want ≥ 50ms", line["solve_ns"])
	}
	for _, key := range []string{"queue_ns", "cache_ns", "total_ns", "status"} {
		if _, ok := line[key]; !ok {
			t.Errorf("slow log missing %q: %v", key, line)
		}
	}
	if got := sink.Snapshot().Counters["server.slow_requests"]; got != 1 {
		t.Errorf("server.slow_requests = %d, want 1", got)
	}
}

// TestFastRequestNotLogged: below the threshold nothing is logged.
func TestFastRequestNotLogged(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{
		Workers: 1, SlowThreshold: 10 * time.Second,
		Log: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	req := solveRequest("greedy", testInstance())
	req.K = 2
	if resp, body := postSolve(t, ts.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if buf.String() != "" {
		t.Errorf("fast request logged: %s", buf.String())
	}
}

// TestDrainFlushesTracer pins the shutdown-telemetry contract: after
// Shutdown returns, every span of every kept trace has reached the
// JSONL tracer as a complete line — no truncated or missing records.
func TestDrainFlushesTracer(t *testing.T) {
	var buf syncBuffer
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: 1, Tracer: obs.NewJSONL(&buf)})
	s := New(Config{Workers: 2, Trace: tr})
	ts := newLocalServer(t, s)

	const solves = 5
	req := solveRequest("greedy", testInstance())
	req.K = 2
	for i := 0; i < solves; i++ {
		if resp, body := postSolve(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every line must parse; count the span events.
	spans := 0
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("truncated JSONL line %q: %v", sc.Text(), err)
		}
		if rec["ev"] == "span" {
			spans++
		}
	}
	// The first solve, the cache miss, commits request + queue + cache +
	// engine solve spans; every later one is a hit, served by the probe,
	// and commits its lone request span.
	if want := 4 + (solves - 1); spans != want {
		t.Errorf("flushed %d span events, want %d", spans, want)
	}
}

// TestDrainInflightGauge: the server.inflight gauge returns to zero
// once Shutdown has drained the queue and workers.
func TestDrainInflightGauge(t *testing.T) {
	sink := obs.New()
	s := New(Config{Workers: 2, Obs: sink})
	ts := newLocalServer(t, s)
	req := solveRequest("greedy", testInstance())
	req.K = 2
	for i := 0; i < 4; i++ {
		if resp, body := postSolve(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := sink.Snapshot().Gauges["server.inflight"]; got != 0 {
		t.Errorf("server.inflight after drain = %d, want 0", got)
	}
}

// TestTracesDuringDrain: /debug/traces (and /metrics) keep answering
// while the server drains, so operators can inspect a wedged drain.
func TestTracesDuringDrain(t *testing.T) {
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: 1})
	s, ts := newTestServer(t, Config{Workers: 1, Trace: tr, Obs: obs.New()})
	req := solveRequest("test-sleep", testInstance())
	done := make(chan struct{})
	go func() {
		defer close(done)
		postSolve(t, ts.URL, req)
	}()
	<-testStarted                                        // the sleep solver is on a worker
	go func() { _ = s.Shutdown(context.Background()) }() // begin draining; the sleep finishes on its own
	var traces TracesResponse
	if resp := getJSON(t, ts.URL+"/debug/traces", &traces); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/traces during drain: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics during drain: status %d", resp.StatusCode)
	}
	<-done
}

// TestServerTracingDisabledAllocs pins the acceptance criterion that
// the per-request instrumentation seam — root span, child spans, slow
// check — allocates nothing when tracing and metrics are off.
func TestServerTracingDisabledAllocs(t *testing.T) {
	s := New(Config{Workers: 1}) // no Obs, no Trace, no SlowThreshold
	defer s.Close()
	ctx := context.Background()
	res := dispatch.Result{QueueNS: 1, SolveNS: 2}
	allocs := testing.AllocsPerRun(1000, func() {
		tctx, root := s.cfg.Trace.StartRequest(ctx, "request", "rid")
		_, q := obs.StartSpan(tctx, "queue")
		q.End()
		cctx, c := obs.StartSpan(tctx, "cache")
		_, sp := obs.StartSpan(obs.AdoptSpan(ctx, cctx), "solve")
		sp.End()
		c.End()
		root.End()
		s.noteSlow("rid", "greedy", res, time.Millisecond, http.StatusOK)
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation path allocates %v/op, want 0", allocs)
	}
}

// BenchmarkSolveServing measures the in-process serving path (admission
// queue → worker → cache → engine) with instrumentation off and fully
// on; compare allocs/op to see the tracing overhead.
func BenchmarkSolveServing(b *testing.B) {
	req := solveRequest("greedy", testInstance())
	req.K = 2
	run := func(b *testing.B, cfg Config) {
		s := New(cfg)
		defer s.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.core.Do(ctx, &req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, Config{Workers: 1})
	})
	b.Run("traced", func(b *testing.B) {
		run(b, Config{Workers: 1, Obs: obs.New(),
			Trace: obs.NewSpanTracer(obs.SpanConfig{SampleRate: 1})})
	})
}

// newLocalServer wires an httptest front end around an existing Server
// whose Shutdown the test drives itself; cleanup only closes the HTTP
// side (Server.Shutdown is idempotent enough via Close).
func newLocalServer(t *testing.T, s *Server) string {
	t.Helper()
	registerTestSolvers(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}
