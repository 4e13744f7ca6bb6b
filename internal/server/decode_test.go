package server

// Decode-once guards: every /v1/solve and /v1/peek body is parsed one
// time, by the strict decoder whenever it accepts, whatever path the
// request then takes. server.decode_fallbacks counts the bodies that
// went to encoding/json instead.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/obs"
)

func TestDecodeOnceNoFallbacks(t *testing.T) {
	sink := obs.New()
	s := New(Config{Workers: 1, Obs: sink, Trace: obs.NewSpanTracer(obs.SpanConfig{SampleRate: 1})})
	defer s.Close()
	h := s.Handler()
	body := `{"solver":"mpartition","instance":{"m":2,"jobs":[{"id":0,"size":5},{"id":1,"size":4},{"id":2,"size":3}],"assign":[0,0,0]},"k":1}`
	post := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))
		return w
	}
	fallbacks := func() int64 { return sink.Reg.Counter("server.decode_fallbacks").Value() }

	for _, step := range []struct{ path, cache string }{
		{"/v1/solve", "miss"}, // strict-shaped miss: queued on a detached copy
		{"/v1/solve", "hit"},  // traced hit: the hit probe is off, the decode is not
		{"/v1/peek", "hit"},
	} {
		w := post(step.path)
		var resp SolveResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d (%v): %s", step.path, w.Code, err, w.Body.String())
		}
		if resp.Cache != step.cache || resp.Makespan == 0 {
			t.Fatalf("%s: cache=%q makespan=%d, want cache=%q and a solution", step.path, resp.Cache, resp.Makespan, step.cache)
		}
		if n := fallbacks(); n != 0 {
			t.Fatalf("%s (%s): server.decode_fallbacks = %d, want 0", step.path, step.cache, n)
		}
	}

	// An escaped string is outside the strict subset: encoding/json
	// decodes it (one fallback) and the request is served as usual.
	escaped := bytes.Replace([]byte(body), []byte(`"mpartition"`), []byte(`"mp\u0061rtition"`), 1)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(escaped)))
	if w.Code != http.StatusOK {
		t.Fatalf("escaped body: status %d: %s", w.Code, w.Body.String())
	}
	if n := fallbacks(); n != 1 {
		t.Fatalf("after an escaped body server.decode_fallbacks = %d, want 1", n)
	}
}

// TestDecodeSolveFallbackKeepsStreamSemantics: a body the strict
// decoder rejects decodes exactly as encoding/json's stream decoder
// would into a fresh request — trailing data after the value is
// ignored, and jobs reused from an earlier decode do not leak into
// fields the body omits.
func TestDecodeSolveFallbackKeepsStreamSemantics(t *testing.T) {
	var req SolveRequest
	dirty := []byte(`{"solver":"greedy","k":3,"instance":{"m":2,"jobs":[{"id":0,"size":5,"cost":9}],"assign":[1]}}`)
	for _, body := range []string{
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":4}],"assign":[0]}} trailing`,
		`{"solver":"gr\u0065edy","instance":{"m":2,"jobs":[{"id":0,"size":4}],"assign":[0]}}`,
	} {
		if err := DecodeSolve(dirty, &req); err != nil {
			t.Fatal(err)
		}
		if DecodeSolveStrict([]byte(body), &req) {
			t.Fatalf("strict decoder accepted %s", body)
		}
		if err := DecodeSolve([]byte(body), &req); err != nil {
			t.Fatalf("fallback rejected a body encoding/json's stream decoder accepts: %v", err)
		}
		var want SolveRequest
		if err := json.NewDecoder(bytes.NewReader([]byte(body))).Decode(&want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("fallback decode of %s\n got %+v\nwant %+v", body, req, want)
		}
	}
	if err := DecodeSolve([]byte(``), &req); err == nil || err.Error() != "EOF" {
		t.Fatalf("empty body: err %v, want the stream decoder's EOF", err)
	}
}
