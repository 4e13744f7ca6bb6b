package server

// Guards for the zero-alloc serving path: the strict decoder must agree
// with encoding/json on everything it accepts, and a warmed scratch
// serving a pure cache hit must not touch the heap.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server/servertest"
)

func TestFastDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range servertest.FastDecodeCorpus() {
		var fast SolveRequest
		solver, ok := fastDecodeSolve([]byte(body), &fast)
		if !ok {
			continue // rejected: the slow path owns it
		}
		fast.Solver = string(solver)
		var want SolveRequest
		dec := json.NewDecoder(bytes.NewReader([]byte(body)))
		if err := dec.Decode(&want); err != nil {
			t.Errorf("fast decoder accepted a body encoding/json rejects (%v): %s", err, body)
			continue
		}
		// Normalize nil-vs-empty: the fast decoder reuses capacity, so
		// empty arrays come back non-nil.
		if len(want.Instance.Jobs) == 0 && len(fast.Instance.Jobs) == 0 {
			want.Instance.Jobs, fast.Instance.Jobs = nil, nil
		}
		if len(want.Instance.Assign) == 0 && len(fast.Instance.Assign) == 0 {
			want.Instance.Assign, fast.Instance.Assign = nil, nil
		}
		if !reflect.DeepEqual(fast, want) {
			t.Errorf("decode mismatch for %s\nfast: %+v\njson: %+v", body, fast, want)
		}
	}
}

// TestFastDecodeMatchesEncodingJSONRandom cross-checks accepted random
// float and integer spellings against strconv via encoding/json.
func TestFastDecodeMatchesEncodingJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		eps := fmt.Sprintf("%d.%0*d", rng.Intn(4), 1+rng.Intn(12), rng.Intn(1_000_000))
		body := fmt.Sprintf(
			`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":%d}],"assign":[%d]},"k":%d,"eps":%s}`,
			1+rng.Int63n(1<<40), rng.Intn(2), rng.Int63n(1<<33)-1<<32, eps)
		var fast SolveRequest
		solver, ok := fastDecodeSolve([]byte(body), &fast)
		if !ok {
			t.Fatalf("fast decoder rejected canonical body: %s", body)
		}
		fast.Solver = string(solver)
		var want SolveRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("stdlib rejected generated body (%v): %s", err, body)
		}
		if fast.Eps != want.Eps || fast.K != want.K || fast.Instance.Jobs[0].Size != want.Instance.Jobs[0].Size {
			t.Fatalf("decode mismatch for %s\nfast: %+v\njson: %+v", body, fast, want)
		}
	}
}

// TestFastSolveHitZeroAllocs is the serving-path allocation guard: a
// warmed scratch answering a repeat request from the cache must not
// allocate (net/http internals excluded — fastSolve is called directly),
// without a tracer and under the daemon's default one, whose unsampled
// requests take this path too.
func TestFastSolveHitZeroAllocs(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		cfg := Config{Workers: 1}
		if traced {
			name = "daemon tracer"
			cfg.Obs = obs.New()
			cfg.Trace = obs.NewSpanTracer(obs.SpanConfig{
				SampleRate: 0.01, SlowThreshold: 500 * time.Millisecond, Obs: cfg.Obs,
			})
		}
		t.Run(name, func(t *testing.T) {
			s := New(cfg)
			defer s.Close()
			h := s.Handler()
			r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(hitBody))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r) // prime the cache through the full stack
			if w.Code != http.StatusOK {
				t.Fatalf("prime request failed: %d %s", w.Code, w.Body.String())
			}

			sc := new(solveScratch)
			sc.body = append(sc.body, hitBody...)
			// One served hit is the handler's decode, the probe, and the
			// books the handler closes on it.
			serve := func() (fastOutcome, error) {
				if strict, err := s.decodeSolve(sc.body, &sc.req); !strict || err != nil {
					return fastFallback, fmt.Errorf("strict decode rejected the body (err %v)", err)
				}
				start := time.Now()
				out, err := s.fastSolve(sc, "alloc-guard")
				s.endFast("alloc-guard", sc.req.Solver, start, http.StatusOK)
				return out, err
			}
			out, err := serve()
			if err != nil || out != fastHit {
				t.Fatalf("warm-up fastSolve: outcome %v, err %v (want hit)", out, err)
			}
			if n := testing.AllocsPerRun(200, func() {
				out, err := serve()
				if err != nil || out != fastHit {
					panic(fmt.Sprintf("outcome %v err %v", out, err))
				}
			}); n != 0 {
				t.Fatalf("decode + fastSolve hit path allocates %.1f/op, want 0", n)
			}
		})
	}
}

// hitBody is a strict solve body the fast-path tests post repeatedly:
// the first post misses, every later one is a cache hit.
var hitBody = []byte(`{"solver":"mpartition","instance":{"m":2,"jobs":[{"id":0,"size":5},{"id":1,"size":4},{"id":2,"size":3},{"id":3,"size":2}],"assign":[0,0,0,0]},"k":2}`)

// postHit posts hitBody under request ID rid and returns the decoded
// response.
func postHit(t *testing.T, h http.Handler, rid string) SolveResponse {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(hitBody))
	r.Header.Set("X-Request-ID", rid)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", rid, w.Code, w.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: decode response: %v", rid, err)
	}
	return resp
}

// traceByID returns the kept trace with the given ID, or nil.
func traceByID(tr *obs.SpanTracer, id string) *obs.Trace {
	for _, trace := range tr.Traces() {
		if trace.TraceID == id {
			return &trace
		}
	}
	return nil
}

// TestSampledHitKeepsSpanTree: at SampleRate 1 every request is
// sampled, so no hit takes the allocation-free path, and each one's
// trace is the admitted path's tree — request → queue + cache, the
// cache span reporting the hit.
func TestSampledHitKeepsSpanTree(t *testing.T) {
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: 1})
	s := New(Config{Workers: 1, Trace: tr})
	defer s.Close()
	h := s.Handler()
	postHit(t, h, "sampled-miss")
	for i := 0; i < 5; i++ {
		rid := fmt.Sprintf("sampled-hit-%d", i)
		if resp := postHit(t, h, rid); resp.Cache != "hit" {
			t.Fatalf("%s: cache %q, want hit", rid, resp.Cache)
		}
		trace := traceByID(tr, rid)
		if trace == nil {
			t.Fatalf("%s: no trace kept at SampleRate 1", rid)
		}
		byName := map[string]obs.SpanRecord{}
		for _, sp := range trace.Spans {
			byName[sp.Name] = sp
		}
		if len(trace.Spans) != 3 || len(byName) != 3 {
			t.Fatalf("%s: spans %v, want request, queue and cache", rid, names(trace.Spans))
		}
		root := byName["request"]
		for _, name := range []string{"queue", "cache"} {
			if sp, ok := byName[name]; !ok || sp.ParentID != root.SpanID || root.ParentID != 0 {
				t.Fatalf("%s: span %q missing or not a child of the root: %+v", rid, name, trace.Spans)
			}
		}
		if got := byName["cache"].Attrs; len(got) != 1 || got[0].Key != "outcome" || got[0].Value() != "hit" {
			t.Fatalf("%s: cache span attrs %+v, want outcome=hit", rid, got)
		}
	}
}

// TestUnsampledSlowFastHitKept: "always keep slow traces" holds on the
// allocation-free path. At SampleRate 0 with a 1 ns threshold every
// request is slow; each hit is served by the probe and kept as a slow
// trace of its lone root span.
func TestUnsampledSlowFastHitKept(t *testing.T) {
	sink := obs.New()
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: 0, SlowThreshold: time.Nanosecond, Obs: sink})
	s := New(Config{Workers: 1, Trace: tr, Obs: sink})
	defer s.Close()
	h := s.Handler()
	postHit(t, h, "slow-miss")
	const hits = 5
	for i := 0; i < hits; i++ {
		rid := fmt.Sprintf("slow-hit-%d", i)
		if resp := postHit(t, h, rid); resp.Cache != "hit" || resp.Timing.QueueNS != 0 {
			t.Fatalf("%s: cache %q, queue_ns %d: not served by the probe", rid, resp.Cache, resp.Timing.QueueNS)
		}
		trace := traceByID(tr, rid)
		if trace == nil {
			t.Fatalf("%s: slow fast-path hit not kept", rid)
		}
		if !trace.Slow || trace.Root != "request" || len(trace.Spans) != 1 {
			t.Fatalf("%s: trace %+v, want one slow root span", rid, trace)
		}
		if a := trace.Spans[0].Attrs; len(a) != 1 || a[0].Key != "solver" || a[0].Value() != "mpartition" {
			t.Fatalf("%s: root attrs %+v, want solver=mpartition", rid, a)
		}
	}
	c := sink.Snapshot().Counters
	if c["trace.started"] != hits+1 || c["trace.kept"] != hits+1 || c["trace.slow"] != hits+1 {
		t.Fatalf("trace counters started %d kept %d slow %d, want %d each",
			c["trace.started"], c["trace.kept"], c["trace.slow"], hits+1)
	}
}

// TestSampleRateOneDrawPerRequest: over many hits the kept fraction
// converges to SampleRate, so each request draws once. Were the admitted
// path to draw again after the probe's draw, only SampleRate² of the
// hits would be kept; were sampled requests served by the probe, none
// would. The kept count must sit within four binomial standard
// deviations of n·SampleRate, every kept hit must carry the admitted
// path's spans, and trace.started counts every request.
func TestSampleRateOneDrawPerRequest(t *testing.T) {
	const (
		hits = 10000
		rate = 0.05
	)
	sink := obs.New()
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: rate, Obs: sink})
	s := New(Config{Workers: 1, Trace: tr, Obs: sink})
	defer s.Close()
	h := s.Handler()
	postHit(t, h, "rate-miss")
	before := sink.Snapshot().Counters["trace.kept"]
	fast := 0
	for i := 0; i < hits; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(hitBody))
		r.Header.Set("X-Request-ID", "rate-"+strconv.Itoa(i))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("hit %d: status %d", i, w.Code)
		}
		if bytes.Contains(w.Body.Bytes(), []byte(`"queue_ns":0,`)) {
			fast++
		}
	}
	c := sink.Snapshot().Counters
	kept := c["trace.kept"] - before
	mean, sd := hits*rate, math.Sqrt(hits*rate*(1-rate))
	if math.Abs(float64(kept)-mean) > 4*sd {
		t.Fatalf("kept %d of %d hits at SampleRate %v, want %.0f ± %.0f", kept, hits, rate, mean, 4*sd)
	}
	if int64(fast)+kept != hits {
		t.Fatalf("%d hits served by the probe and %d kept; together they should be all %d", fast, kept, hits)
	}
	if c["trace.started"] != hits+1 {
		t.Fatalf("trace.started %d, want %d", c["trace.started"], hits+1)
	}
	for _, trace := range tr.Traces() {
		if len(trace.Spans) < 3 {
			t.Fatalf("kept trace %s has spans %v, want the admitted path's tree", trace.TraceID, names(trace.Spans))
		}
	}
}

// TestProbedMissServesLaterHits: a strict body that misses is solved
// under the key its probe computed (the probe hands it to the admitted
// solve), so the next identical request — and a permuted twin — hits
// that entry on the probe with the same assignment.
func TestProbedMissServesLaterHits(t *testing.T) {
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: 0})
	s := New(Config{Workers: 1, Trace: tr})
	defer s.Close()
	h := s.Handler()
	miss := postHit(t, h, "probe-miss")
	if miss.Cache != "miss" {
		t.Fatalf("first post: cache %q, want miss", miss.Cache)
	}
	hit := postHit(t, h, "probe-hit")
	if hit.Cache != "hit" || hit.Timing.QueueNS != 0 {
		t.Fatalf("second post: cache %q, queue_ns %d: not a probe hit", hit.Cache, hit.Timing.QueueNS)
	}
	if !slices.Equal(hit.Assign, miss.Assign) || hit.Makespan != miss.Makespan {
		t.Fatalf("hit %v (makespan %d) differs from the miss %v (makespan %d)", hit.Assign, hit.Makespan, miss.Assign, miss.Makespan)
	}
	// The same jobs listed in reverse share the canonical key.
	twin := []byte(`{"solver":"mpartition","instance":{"m":2,"jobs":[{"id":0,"size":2},{"id":1,"size":3},{"id":2,"size":4},{"id":3,"size":5}],"assign":[0,0,0,0]},"k":2}`)
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(twin))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var resp SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Cache != "hit" {
		t.Fatalf("permuted twin: cache %q (err %v): %s", resp.Cache, err, w.Body.String())
	}
	for j := range resp.Assign {
		if resp.Assign[j] != miss.Assign[len(miss.Assign)-1-j] {
			t.Fatalf("permuted twin assignment %v does not mirror the miss's %v", resp.Assign, miss.Assign)
		}
	}
}

// TestFastPathResponseMatchesSlowPath pins the append-based encoder to
// encoding/json: the second (fast-path) response must byte-equal the
// first hit served before the fast path existed — both are compared to
// a re-marshal of the decoded struct, neutralizing the timing field.
func TestFastPathResponseMatchesSlowPath(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":7},{"id":1,"size":4},{"id":2,"size":3}],"assign":[0,0,0]},"k":1}`)
	post := func(rid string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		r.Header.Set("X-Request-ID", rid)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	post("parity") // miss: slow path computes and caches
	// A request ID the append encoder cannot emit verbatim forces the
	// original encoding/json hit path even though the cache is warm.
	slowHit := post("parity<slow>")
	if !bytes.Contains(slowHit.Body.Bytes(), []byte(`"cache":"hit"`)) {
		t.Fatalf("second request was not a cache hit: %s", slowHit.Body.String())
	}
	fastHitResp := post("parity")
	if !bytes.Contains(fastHitResp.Body.Bytes(), []byte(`"cache":"hit"`)) {
		t.Fatalf("third request was not a cache hit: %s", fastHitResp.Body.String())
	}
	norm := func(raw []byte) SolveResponse {
		var resp SolveResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("bad response %s: %v", raw, err)
		}
		resp.Timing = Timing{}
		resp.RequestID = ""
		return resp
	}
	a, b := norm(slowHit.Body.Bytes()), norm(fastHitResp.Body.Bytes())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fast hit diverges from slow hit\nslow: %+v\nfast: %+v", a, b)
	}
	// Field order and structure must match encoding/json exactly.
	var generic map[string]any
	if err := json.Unmarshal(fastHitResp.Body.Bytes(), &generic); err != nil {
		t.Fatalf("fast response is not valid JSON: %v", err)
	}
	if ct := fastHitResp.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("fast response Content-Type = %q", ct)
	}
}

// TestFastPathShardIDParity: with a fleet identity configured, the
// append encoder emits shard_id exactly where encoding/json puts it —
// between cache and timing — on both serving paths, and an unsafe
// shard ID disables the fast path rather than emitting broken JSON.
func TestFastPathShardIDParity(t *testing.T) {
	s := New(Config{Workers: 1, ShardID: "s7"})
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":7},{"id":1,"size":4},{"id":2,"size":3}],"assign":[0,0,0]},"k":1}`)
	post := func(rid string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		r.Header.Set("X-Request-ID", rid)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	post("shard-parity") // miss: slow path computes and caches
	slowHit := post("shard-parity<slow>")
	fastHit := post("shard-parity")
	want := []byte(`,"cache":"hit","shard_id":"s7","timing":{`)
	for _, resp := range []*httptest.ResponseRecorder{slowHit, fastHit} {
		if !bytes.Contains(resp.Body.Bytes(), want) {
			t.Fatalf("response missing shard_id in canonical position: %s", resp.Body.String())
		}
	}
	var generic map[string]any
	if err := json.Unmarshal(fastHit.Body.Bytes(), &generic); err != nil {
		t.Fatalf("fast response is not valid JSON: %v", err)
	}

	// A shard ID that needs JSON escaping must force the slow path; the
	// response still carries it, escaped by encoding/json.
	esc := New(Config{Workers: 1, ShardID: `s"0`})
	defer esc.Close()
	eh := esc.Handler()
	postEsc := func(rid string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		r.Header.Set("X-Request-ID", rid)
		w := httptest.NewRecorder()
		eh.ServeHTTP(w, r)
		return w
	}
	postEsc("esc")
	hit := postEsc("esc")
	var resp SolveResponse
	if err := json.Unmarshal(hit.Body.Bytes(), &resp); err != nil {
		t.Fatalf("escaped-shard response: %v", err)
	}
	if resp.Cache != "hit" || resp.ShardID != `s"0` {
		t.Fatalf("escaped-shard hit: cache=%q shard=%q", resp.Cache, resp.ShardID)
	}
}
