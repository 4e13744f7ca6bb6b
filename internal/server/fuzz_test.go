package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/server/servertest"
	"repro/internal/verify"
)

// fuzzServer and fuzzUncachedServer build the two servers shared by
// the whole fuzz run: tight timeouts and a small body cap keep each
// iteration fast. The first's live cache means repeated corpus entries
// also exercise the hit and coalesce paths; the second runs with
// caching disabled (CacheEntries -1).
var (
	fuzzOnce              sync.Once
	fuzzMux, fuzzUncached http.Handler
)

func fuzzServer() http.Handler {
	fuzzOnce.Do(func() {
		cfg := Config{
			Workers:        2,
			QueueDepth:     8,
			DefaultTimeout: 100 * time.Millisecond,
			MaxTimeout:     200 * time.Millisecond,
			MaxBodyBytes:   1 << 15,
		}
		fuzzMux = New(cfg).Handler()
		cfg.CacheEntries = -1
		fuzzUncached = New(cfg).Handler()
	})
	return fuzzMux
}

func fuzzUncachedServer() http.Handler {
	fuzzServer()
	return fuzzUncached
}

// fuzzStatuses is the closed set of statuses the solve endpoint may
// produce: anything else means a request escaped the typed error
// mapping.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                  true,
	http.StatusBadRequest:          true, // malformed JSON, invalid instance, bad flags
	http.StatusNotFound:            true, // unknown solver
	http.StatusUnprocessableEntity: true, // infeasible
	http.StatusTooManyRequests:     true, // queue full
	http.StatusServiceUnavailable:  true, // draining / abandoned
	http.StatusGatewayTimeout:      true, // deadline
	http.StatusInternalServerError: true, // unclassified solver error
}

// fuzzSolverSeeds are FuzzServerSolve's hand-written seeds that must
// reach a solver and answer 200 (TestFuzzSolverSeedsAnswer200): one per
// kind of request the seeds cover beside mpartition — a k-bounded
// solver, a budgeted one, an extended instance and a sweep.
var fuzzSolverSeeds = []string{
	`{"solver":"greedy","k":2,"instance":{"m":2,"jobs":[{"id":0,"size":5},{"id":1,"size":4},{"id":2,"size":3}],"assign":[0,0,0]}}`,
	`{"solver":"exact-budget","budget":3,"instance":{"m":2,"jobs":[{"id":0,"size":5,"cost":1},{"id":1,"size":4,"cost":2}],"assign":[0,0]}}`,
	`{"solver":"conflict","instance":{"m":2,"jobs":[{"id":0,"size":5},{"id":1,"size":4}],"assign":[0,0],"allowed":[[0],[0,1]],"conflicts":[[0,1]]}}`,
	`{"solver":"frontier","ks":[0,1,2],"instance":{"m":2,"jobs":[{"id":0,"size":5},{"id":1,"size":4}],"assign":[0,0]}}`,
}

// TestFuzzSolverSeedsAnswer200 keeps fuzzSolverSeeds live: a seed the
// validator rejects never runs the cached-repeat or reversed-twin
// checks, so the fuzz target would only ever see its 400.
func TestFuzzSolverSeedsAnswer200(t *testing.T) {
	for _, body := range fuzzSolverSeeds {
		if _, code := fuzzPost(t, fuzzServer(), []byte(body), ""); code != http.StatusOK {
			t.Errorf("seed answered %d, want 200: %s", code, body)
		}
	}
}

// FuzzServerSolve throws arbitrary bytes at POST /v1/solve, under an
// arbitrary X-Request-ID: the handler must never panic, must always
// answer with a status from the typed set, and must always produce a
// JSON body (a SolveResponse on 200, an ErrorResponse otherwise). A 200
// must echo the request ID, clamped to maxRequestIDLen, exactly, and its
// assignment must pass verify against its own request. Every
// body that answered 200 is posted again: a cacheable one is then a hit,
// served before admission (queue_ns 0), with the first answer's
// assignment, makespan and moves — whichever decoder read the body, so
// the committed corpus carries a solver name only the encoding/json
// fallback reads (seed-escaped-solver). The strict decoder's corpus
// seeds it too, so every way out of its literal path is served end to
// end. Every solution-kind body without extension fields that answered
// 200 is also posted with its jobs in reverse order to a server with
// caching disabled: a served answer depends only on the canonical key,
// so the twin must answer the same makespan, moves and move cost and
// put the same jobs — by (size, cost, initial processor) — on the same
// processors.
func FuzzServerSolve(f *testing.F) {
	for _, body := range fuzzSolverSeeds {
		f.Add([]byte(body), "")
	}
	f.Add([]byte(`{"solver":"nope","instance":{"m":1,"jobs":[{"size":1}],"assign":[0]}}`), "")
	f.Add([]byte(`{"solver":"greedy","k":-7,"instance":{"m":0,"jobs":[],"assign":[]}}`), "")
	f.Add([]byte(`{"solver":"greedy","instance":{"m":2,"jobs":[{"size":5}`), "") // truncated
	f.Add([]byte(`{"solver":"ptas","eps":1e308,"timeout_ms":99999999,"instance":{"m":2,"jobs":[{"size":9223372036854775807}],"assign":[0]}}`), "")
	f.Add([]byte(`[1,2,3]`), "")
	f.Add([]byte(``), "")
	f.Add([]byte(`{"solver":"greedy","k":1,"instance":{"m":3,"jobs":[{"size":1},{"size":1}],"assign":[0,9]}}`), "")
	// m far past the processor bound: a 400, not per-processor state.
	f.Add([]byte(`{"solver":"mpartition","k":1,"instance":{"m":1099511627776,"jobs":[{"size":5},{"size":3}],"assign":[0,1]}}`), "")
	for _, body := range servertest.FastDecodeCorpus() {
		f.Add([]byte(body), "")
	}
	f.Add(hitBody, `say "hi"`)
	f.Add(hitBody, `<script>&amp;</script>`)
	f.Add(hitBody, "line\u2028sep\u2029")
	f.Add(hitBody, "grüße-日本-☃")
	// Its request order and its canonical order (which its reverse is)
	// answer different makespans when each is solved as given.
	f.Add([]byte(`{"solver":"budget","budget":3,"instance":{"m":3,"jobs":[{"id":0,"size":7,"cost":1},{"id":1,"size":5,"cost":1},{"id":2,"size":4,"cost":1},{"id":3,"size":3,"cost":1},{"id":4,"size":3,"cost":1},{"id":5,"size":2,"cost":1}],"assign":[0,0,0,1,1,2]}}`), "")
	f.Fuzz(func(t *testing.T, body []byte, rid string) {
		first, code := fuzzPost(t, fuzzServer(), body, rid)
		if code != http.StatusOK {
			return
		}
		again, code := fuzzPost(t, fuzzServer(), body, rid)
		if first.Cache == "" {
			return // not cached (a sweep): the repeat is a fresh solve
		}
		if code != http.StatusOK || again.Cache != "hit" {
			t.Fatalf("repeat of a cached 200 answered %d with cache %q, want a hit (body %q)", code, again.Cache, body)
		}
		if !slices.Equal(again.Assign, first.Assign) || again.Makespan != first.Makespan || again.Moves != first.Moves {
			t.Fatalf("repeat hit assign %v makespan %d moves %d, first answer %v %d %d (body %q)",
				again.Assign, again.Makespan, again.Moves, first.Assign, first.Makespan, first.Moves, body)
		}
		fuzzReversedTwin(t, body, first)
	})
}

// fuzzReversedTwin posts body's reversed-order twin to the
// cache-disabled server and checks that it answers first, body's
// cached answer, up to the relabeling. Extended bodies are skipped:
// they are keyed in their own job order, so their twin is another key.
// A twin cut off by load (429, 503, 504) has nothing to compare.
func fuzzReversedTwin(t *testing.T, body []byte, first SolveResponse) {
	t.Helper()
	var req SolveRequest
	if err := DecodeSolve(body, &req); err != nil {
		t.Fatalf("200 for a body DecodeSolve rejects: %v (body %q)", err, body)
	}
	if len(req.Instance.Allowed) > 0 || len(req.Instance.Conflicts) > 0 {
		return
	}
	in := &req.Instance.Instance
	orig := in.Clone()
	slices.Reverse(in.Jobs)
	slices.Reverse(in.Assign)
	for j := range in.Jobs {
		in.Jobs[j].ID = j
	}
	twinBody, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	twin, code := fuzzPost(t, fuzzUncachedServer(), twinBody, "")
	switch code {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return
	default:
		t.Fatalf("reversed twin of a 200 answered %d (twin %q)", code, twinBody)
	}
	if twin.Cache != "" {
		t.Fatalf("cache-disabled server answered cache %q", twin.Cache)
	}
	if twin.Makespan != first.Makespan || twin.Moves != first.Moves || twin.MoveCost != first.MoveCost ||
		!slices.Equal(placements(in, twin.Assign), placements(orig, first.Assign)) {
		t.Fatalf("reversed twin answered makespan %d, moves %d, cost %d, assign %v; cached answer %d, %d, %d, %v (body %q)",
			twin.Makespan, twin.Moves, twin.MoveCost, twin.Assign, first.Makespan, first.Moves, first.MoveCost, first.Assign, body)
	}
}

// placements lists where assign puts each job of in, by (size, cost,
// initial processor, final processor), sorted: two answers agree up to
// a relabeling of jobs exactly when their placements are equal.
func placements(in *instance.Instance, assign []int) [][4]int64 {
	out := make([][4]int64, in.N())
	for j, job := range in.Jobs {
		out[j] = [4]int64{job.Size, job.Cost, int64(in.Assign[j]), int64(assign[j])}
	}
	slices.SortFunc(out, func(a, b [4]int64) int { return slices.Compare(a[:], b[:]) })
	return out
}

// fuzzPost posts body under rid to h, a shared fuzz server, and checks
// the answer against FuzzServerSolve's contract. It returns the status,
// with the decoded response on a 200.
func fuzzPost(t *testing.T, h http.Handler, body []byte, rid string) (resp SolveResponse, code int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req) // a panic here fails the fuzz run

	if !fuzzStatuses[rec.Code] {
		t.Fatalf("status %d outside the typed set (body %q)", rec.Code, body)
	}
	var payload json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("status %d with non-JSON body %q (request %q)", rec.Code, rec.Body.Bytes(), body)
	}
	if rec.Code != http.StatusOK {
		var eresp ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil || eresp.Error == "" {
			t.Fatalf("status %d without a typed error body: %v (%q)", rec.Code, err, rec.Body.Bytes())
		}
		return SolveResponse{}, rec.Code
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("200 body does not decode as SolveResponse: %v (%q)", err, rec.Body.Bytes())
	}
	want := rid[:min(len(rid), maxRequestIDLen)]
	if want != "" && utf8.ValidString(want) && resp.RequestID != want {
		t.Fatalf("request_id %q, want %q (body %q)", resp.RequestID, want, rec.Body.Bytes())
	}
	if resp.Cache == "hit" && resp.Timing.QueueNS != 0 {
		t.Fatalf("cache hit with queue_ns %d: admitted, not served by the probe (body %q)", resp.Timing.QueueNS, body)
	}
	if resp.Assign != nil {
		fuzzVerify(t, body, resp)
	}
	return resp, http.StatusOK
}

// fuzzVerify checks a 200's assignment against its own request: within
// the request's k or budget per the solver's caps (a negative one
// counts as 0, as the solvers treat it), with the makespan, moves and
// move cost the response claims.
func fuzzVerify(t *testing.T, body []byte, resp SolveResponse) {
	t.Helper()
	var req SolveRequest
	if err := DecodeSolve(body, &req); err != nil {
		t.Fatalf("200 for a body DecodeSolve rejects: %v (body %q)", err, body)
	}
	spec, _ := engine.Lookup(req.Solver)
	in := &req.Instance.Instance
	var got verify.Report
	var err error
	switch {
	case spec.Caps.K:
		got, err = verify.WithinMoves(in, resp.Assign, max(req.K, 0))
	case spec.Caps.Budget:
		got, err = verify.WithinBudget(in, resp.Assign, max(req.Budget, 0))
	default:
		got, err = verify.Solution(in, resp.Assign)
	}
	if err != nil {
		t.Fatalf("200 answer fails verification: %v (body %q)", err, body)
	}
	if claimed := (verify.Report{Makespan: resp.Makespan, Moves: resp.Moves, MoveCost: resp.MoveCost}); got != claimed {
		t.Fatalf("200 claims %+v, recomputed %+v (body %q)", claimed, got, body)
	}
}
