package server

// Guards for the zero-alloc serving path: the strict decoder must agree
// with encoding/json on everything it accepts, and a warmed scratch
// serving a pure cache hit must not touch the heap.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

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
// allocate (net/http internals excluded — fastSolve is called directly).
func TestFastSolveHitZeroAllocs(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"solver":"mpartition","instance":{"m":2,"jobs":[{"id":0,"size":5},{"id":1,"size":4},{"id":2,"size":3},{"id":3,"size":2}],"assign":[0,0,0,0]},"k":2}`)
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r) // prime the cache through the full stack
	if w.Code != http.StatusOK {
		t.Fatalf("prime request failed: %d %s", w.Code, w.Body.String())
	}

	sc := new(solveScratch)
	sc.body = append(sc.body, body...)
	// One served hit is the handler's decode followed by the probe.
	serve := func() (fastOutcome, error) {
		if strict, err := s.decodeSolve(sc.body, &sc.req); !strict || err != nil {
			return fastFallback, fmt.Errorf("strict decode rejected the body (err %v)", err)
		}
		return s.fastSolve(sc, "alloc-guard")
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
