package server

// Guards for the zero-alloc serving path: the strict decoder must agree
// with encoding/json on everything it accepts, and a warmed scratch
// serving a pure cache hit must not touch the heap.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server/servertest"
	"repro/internal/workload"
)

func TestFastDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range servertest.FastDecodeCorpus() {
		var fast SolveRequest
		solver, ok := decodeStrict([]byte(body), &fast)
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
		solver, ok := decodeStrict([]byte(body), &fast)
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

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a random share of Puts, so allocation counts that pass through
// one are not stable.
var raceEnabled bool

// TestFastSolveHitZeroAllocs is the serving-path allocation guard: a
// warmed scratch answering a repeat request from the cache must not
// allocate (net/http internals excluded — the pipeline, serve, is called
// directly), without a tracer, under the daemon's default one, and with
// a shard ID to encode. Under the daemon's tracer about one request in
// a hundred is sampled, and keeping its trace allocates a few objects:
// far less than one per request. The decode, probe and books are
// counted in every build; the response encode keeps its state in
// encoding/json's sync.Pool, so it is counted in normal builds only.
func TestFastSolveHitZeroAllocs(t *testing.T) {
	sink := obs.New()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"untraced", Config{Workers: 1}},
		{"daemon tracer", Config{Workers: 1, Obs: sink, Trace: obs.NewSpanTracer(obs.SpanConfig{
			SampleRate: 0.01, SlowThreshold: 500 * time.Millisecond, Obs: sink,
		})}},
		{"shard id", Config{Workers: 1, ShardID: "s7"}},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
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
			ctx := context.Background()
			var resp SolveResponse
			// probe is the handler's decode and the pipeline, which serves
			// the hit and closes its books; encode renders the hit's body.
			probe := func() error {
				if !DecodeSolveStrict(sc.body, &sc.req) {
					return fmt.Errorf("strict decode rejected the body")
				}
				var status int
				var msg string
				resp, status, msg = s.serve(ctx, sc, &sc.req, "alloc-guard", false)
				if status != http.StatusOK || resp.Cache != "hit" || resp.Timing.QueueNS != 0 {
					return fmt.Errorf("serve: status %d (%s), cache %q, queue_ns %d, want a hit", status, msg, resp.Cache, resp.Timing.QueueNS)
				}
				return nil
			}
			encode := func() { sc.encode(resp) }
			if err := probe(); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			encode()
			if n := testing.AllocsPerRun(200, func() {
				if err := probe(); err != nil {
					panic(err)
				}
			}); n != 0 {
				t.Fatalf("decode + served hit allocates %.1f/op, want 0", n)
			}
			if raceEnabled {
				return
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := probe(); err != nil {
					panic(err)
				}
				encode()
			}); n != 0 {
				t.Fatalf("decode + served hit + response encode allocates %.1f/op, want 0", n)
			}
		})
	}
}

// hitBody is a strict solve body the hit-path tests post repeatedly:
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
// sampled, and a sampled hit is still served by the probe, without a
// solve slot. Its kept trace is the hit's shape: one request root span
// carrying the solver, not marked slow.
func TestSampledHitKeepsSpanTree(t *testing.T) {
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: 1})
	s := New(Config{Workers: 1, Trace: tr})
	defer s.Close()
	h := s.Handler()
	postHit(t, h, "sampled-miss")
	for i := 0; i < 5; i++ {
		rid := fmt.Sprintf("sampled-hit-%d", i)
		if resp := postHit(t, h, rid); resp.Cache != "hit" || resp.Timing.QueueNS != 0 {
			t.Fatalf("%s: cache %q, queue_ns %d: not served by the probe", rid, resp.Cache, resp.Timing.QueueNS)
		}
		trace := traceByID(tr, rid)
		if trace == nil {
			t.Fatalf("%s: no trace kept at SampleRate 1", rid)
		}
		if trace.Slow || trace.Root != "request" || len(trace.Spans) != 1 {
			t.Fatalf("%s: trace %+v, want one root span, not slow", rid, trace)
		}
		sp := trace.Spans[0]
		if sp.Name != "request" || sp.ParentID != 0 || sp.TraceID != rid {
			t.Fatalf("%s: root span %+v", rid, sp)
		}
		if a := sp.Attrs; len(a) != 1 || a[0].Key != "solver" || a[0].Value() != "mpartition" {
			t.Fatalf("%s: root attrs %+v, want solver=mpartition", rid, a)
		}
	}
	// The miss before them was admitted and keeps the full tree.
	if trace := traceByID(tr, "sampled-miss"); trace == nil || len(trace.Spans) != 4 {
		t.Fatalf("sampled miss: trace %+v, want request, queue, cache and solve spans", trace)
	}
}

// TestUnsampledSlowFastHitKept: "always keep slow traces" holds for
// hits the probe serves. At SampleRate 0 with a 1 ns threshold every
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
			t.Fatalf("%s: slow hit not kept", rid)
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
// converges to SampleRate, so each request draws once. Were the hit's
// trace to draw again after the request's draw, only SampleRate² of the
// hits would be kept. The kept count must sit within four binomial
// standard deviations of n·SampleRate, every hit must be served by the
// probe (queue_ns 0), sampled or not, every kept hit must have the
// hit's one-span shape, and trace.started counts every request.
func TestSampleRateOneDrawPerRequest(t *testing.T) {
	const (
		hits = 10000
		rate = 0.05
	)
	sink := obs.New()
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: rate, RingSize: hits, Obs: sink})
	s := New(Config{Workers: 1, Trace: tr, Obs: sink})
	defer s.Close()
	h := s.Handler()
	postHit(t, h, "rate-miss")
	before := sink.Snapshot().Counters["trace.kept"]
	for i := 0; i < hits; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(hitBody))
		r.Header.Set("X-Request-ID", "rate-"+strconv.Itoa(i))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("hit %d: status %d", i, w.Code)
		}
		if !bytes.Contains(w.Body.Bytes(), []byte(`"cache":"hit"`)) || !bytes.Contains(w.Body.Bytes(), []byte(`"queue_ns":0,`)) {
			t.Fatalf("hit %d was not served by the probe: %s", i, w.Body.Bytes())
		}
	}
	c := sink.Snapshot().Counters
	kept := c["trace.kept"] - before
	mean, sd := hits*rate, math.Sqrt(hits*rate*(1-rate))
	if math.Abs(float64(kept)-mean) > 4*sd {
		t.Fatalf("kept %d of %d hits at SampleRate %v, want %.0f ± %.0f", kept, hits, rate, mean, 4*sd)
	}
	if c["trace.started"] != hits+1 {
		t.Fatalf("trace.started %d, want %d", c["trace.started"], hits+1)
	}
	hitTraces := 0
	for _, trace := range tr.Traces() {
		if trace.TraceID == "rate-miss" {
			continue
		}
		hitTraces++
		if len(trace.Spans) != 1 || trace.Root != "request" {
			t.Fatalf("kept hit %s has spans %v, want the hit's lone root span", trace.TraceID, names(trace.Spans))
		}
	}
	if int64(hitTraces) != kept {
		t.Fatalf("%d hit traces in the ring, %d counted kept", hitTraces, kept)
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

// parityBody is the strict greedy body the parity tests post twice:
// the first post misses, the second is a cache hit.
var parityBody = []byte(`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":7},{"id":1,"size":4},{"id":2,"size":3}],"assign":[0,0,0]},"k":1}`)

// timingField matches a response's timing object, the one part of a
// hit's body that differs from run to run.
var timingField = regexp.MustCompile(`"timing":\{"queue_ns":\d+,"cache_ns":\d+,"solve_ns":\d+\}`)

// parityHits serves parityBody's cache hit under request ID rid twice:
// once from a server built on cfg, with no tracer, and once from the
// same server with a SampleRate 1 tracer, where every request is
// sampled. Both hits must be served by the probe, and the sampled one
// kept. It returns both bodies with their timing zeroed.
func parityHits(t *testing.T, cfg Config, rid string) (unsampled, sampled []byte) {
	t.Helper()
	tr := obs.NewSpanTracer(obs.SpanConfig{SampleRate: 1})
	var bodies [2][]byte
	for i, trace := range []*obs.SpanTracer{nil, tr} {
		cfg.Trace = trace
		s := New(cfg)
		defer s.Close()
		h := s.Handler()
		var w *httptest.ResponseRecorder
		for _, id := range []string{rid + "-miss", rid} {
			r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(parityBody))
			r.Header.Set("X-Request-ID", id)
			w = httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", id, w.Code, w.Body.String())
			}
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("hit Content-Type = %q", ct)
		}
		bodies[i] = w.Body.Bytes()
		if !bytes.Contains(bodies[i], []byte(`"cache":"hit"`)) || !bytes.Contains(bodies[i], []byte(`"queue_ns":0,`)) {
			t.Fatalf("hit %d was not served by the probe: %s", i, bodies[i])
		}
	}
	if traceByID(tr, rid) == nil {
		t.Fatalf("sampled hit was not kept: %s", bodies[1])
	}
	zero := []byte(`"timing":{"queue_ns":0,"cache_ns":0,"solve_ns":0}`)
	return timingField.ReplaceAll(bodies[0], zero), timingField.ReplaceAll(bodies[1], zero)
}

// TestFastPathResponseMatchesSlowPath: a sampled hit and an unsampled
// one answer with the same bytes, timing aside.
func TestFastPathResponseMatchesSlowPath(t *testing.T) {
	unsampled, sampled := parityHits(t, Config{Workers: 1}, "parity")
	if !bytes.Equal(unsampled, sampled) {
		t.Fatalf("sampled hit diverges from unsampled hit\nsampled:   %s\nunsampled: %s", sampled, unsampled)
	}
}

// TestFastPathShardIDParity: with a fleet identity configured, sampled
// and unsampled hits emit the same bytes with shard_id where
// encoding/json puts it, between cache and timing. A request ID and a
// shard ID that need JSON escaping are served by the probe too, and
// decode back exactly.
func TestFastPathShardIDParity(t *testing.T) {
	unsampled, sampled := parityHits(t, Config{Workers: 1, ShardID: "s7"}, "shard-parity")
	if !bytes.Equal(unsampled, sampled) {
		t.Fatalf("sampled hit diverges from unsampled hit\nsampled:   %s\nunsampled: %s", sampled, unsampled)
	}
	if want := []byte(`,"cache":"hit","shard_id":"s7","timing":{`); !bytes.Contains(unsampled, want) {
		t.Fatalf("response missing shard_id in canonical position: %s", unsampled)
	}

	const rid, shard = "a\"b<c>&\u2028", `s"0`
	unsampled, sampled = parityHits(t, Config{Workers: 1, ShardID: shard}, rid)
	if !bytes.Equal(unsampled, sampled) {
		t.Fatalf("escaped IDs: sampled hit diverges from unsampled hit\nsampled:   %s\nunsampled: %s", sampled, unsampled)
	}
	s := New(Config{Workers: 1, ShardID: shard})
	defer s.Close()
	h := s.Handler()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(parityBody)))
	sc := new(solveScratch)
	if !DecodeSolveStrict(parityBody, &sc.req) {
		t.Fatal("strict decode rejected the body")
	}
	hit, status, msg := s.serve(context.Background(), sc, &sc.req, rid, false)
	if status != http.StatusOK || hit.Cache != "hit" {
		t.Fatalf("serve: status %d (%s), cache %q (want a hit)", status, msg, hit.Cache)
	}
	sc.encode(hit)
	var resp SolveResponse
	if err := json.Unmarshal(sc.out.Bytes(), &resp); err != nil {
		t.Fatalf("escaped-ID response %s: %v", sc.out.Bytes(), err)
	}
	if resp.Cache != "hit" || resp.RequestID != rid || resp.ShardID != shard {
		t.Fatalf("escaped-ID hit: cache %q, request_id %q, shard_id %q", resp.Cache, resp.RequestID, resp.ShardID)
	}
}

// TestSolveContentLength: solve and peek bodies are encoded in full
// before the response starts, so even a 2000-job answer, far past what
// net/http buffers before switching to chunked encoding, goes out with
// an exact Content-Length. A short cache hit, whose header net/http
// sets itself, carries an exact one too.
func TestSolveContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := workload.Generate(workload.Config{N: 2000, M: 16, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 5})
	req := solveRequest("mpartition", in)
	req.K = 50
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, post := range []struct {
		path string
		body []byte
		long bool
	}{
		{"/v1/solve", body, true},
		{"/v1/peek", body, true},
		{"/v1/solve", hitBody, false}, // the miss that primes the hit
		{"/v1/solve", hitBody, false},
	} {
		path := post.path
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(post.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %.200s", path, resp.StatusCode, err, got)
		}
		if long := len(got) > chunkingThreshold; long != post.long {
			t.Fatalf("%s: body of %d bytes, want it longer than %d: %v", path, len(got), chunkingThreshold, post.long)
		}
		if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v, body %d bytes", path, resp.ContentLength, resp.TransferEncoding, len(got))
		}
	}
}
