package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
)

// stripVolatile zeroes the per-call fields (timings, cache outcome) so
// two responses for the same logical result compare byte-identical.
func stripVolatile(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode response %s: %v", body, err)
	}
	resp.Timing, resp.Cache, resp.RequestID = Timing{}, "", ""
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSolveCacheHit pins the acceptance criterion: the second identical
// /v1/solve is served from the cache — hit counter increments, the
// response says "hit", and the result is byte-identical to the miss.
func TestSolveCacheHit(t *testing.T) {
	sink := obs.New()
	_, ts := newTestServer(t, Config{Workers: 2, Obs: sink})
	req := solveRequest("mpartition", testInstance())
	req.K = 2

	resp1, body1 := postSolve(t, ts.URL, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: %d %s", resp1.StatusCode, body1)
	}
	var r1 SolveResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cache != "miss" {
		t.Errorf("first solve cache=%q, want miss", r1.Cache)
	}

	resp2, body2 := postSolve(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second solve: %d %s", resp2.StatusCode, body2)
	}
	var r2 SolveResponse
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "hit" {
		t.Errorf("second solve cache=%q, want hit", r2.Cache)
	}
	if got, want := stripVolatile(t, body2), stripVolatile(t, body1); !bytes.Equal(got, want) {
		t.Errorf("cached result differs from fresh:\nfresh: %s\nhit:   %s", want, got)
	}
	if hits := sink.Reg.Counter("cache.hits").Value(); hits != 1 {
		t.Errorf("cache.hits = %d, want 1", hits)
	}
	if hits := sink.Reg.Counter("cache.hits.mpartition").Value(); hits != 1 {
		t.Errorf("cache.hits.mpartition = %d, want 1", hits)
	}
}

// TestCacheDisabled: CacheEntries < 0 turns the cache off — repeated
// solves recompute and the response carries no cache field.
func TestCacheDisabled(t *testing.T) {
	sink := obs.New()
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: -1, Obs: sink})
	req := solveRequest("greedy", testInstance())
	req.K = 2
	for i := 0; i < 2; i++ {
		resp, body := postSolve(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
		var r SolveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Cache != "" {
			t.Errorf("solve %d: cache=%q with caching disabled", i, r.Cache)
		}
	}
	if hits := sink.Reg.Counter("cache.hits").Value(); hits != 0 {
		t.Errorf("cache.hits = %d with caching disabled", hits)
	}
}

// TestConcurrentDuplicatesCoalesce pins the acceptance criterion:
// N concurrent identical solves cost exactly one engine invocation.
func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	const dup = 8
	// The gate solver counts engine invocations and parks until
	// released, so concurrent duplicates pile onto one flight.
	var calls atomic.Int64
	started := make(chan struct{}, dup)
	release := make(chan struct{})
	engine.RegisterTest(t, engine.Spec{
		Name: "srvcache-gate", Summary: "counts invocations, parks until released", Guarantee: "-",
		Run: func(ctx context.Context, in *instance.Instance, _ engine.Params) (instance.Solution, error) {
			calls.Add(1)
			started <- struct{}{}
			select {
			case <-release:
				return instance.NewSolution(in, in.Assign), nil
			case <-ctx.Done():
				return instance.Solution{}, ctx.Err()
			}
		},
	})
	sink := obs.New()
	_, ts := newTestServer(t, Config{Workers: dup, QueueDepth: 2 * dup, Obs: sink})
	req := solveRequest("srvcache-gate", testInstance())

	type result struct {
		status int
		body   []byte
	}
	results := make([]result, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postSolve(t, ts.URL, req)
			results[i] = result{resp.StatusCode, body}
		}(i)
	}
	<-started // the single flight is running
	deadline := time.After(5 * time.Second)
	for sink.Reg.Counter("cache.coalesced").Value() < dup-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d of %d duplicates coalesced", sink.Reg.Counter("cache.coalesced").Value(), dup-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d engine invocations for %d concurrent duplicates, want 1", got, dup)
	}
	outcomes := map[string]int{}
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, r.status, r.body)
		}
		var sr SolveResponse
		if err := json.Unmarshal(r.body, &sr); err != nil {
			t.Fatal(err)
		}
		outcomes[sr.Cache]++
		if got, want := stripVolatile(t, r.body), stripVolatile(t, results[0].body); !bytes.Equal(got, want) {
			t.Errorf("request %d result differs: %s vs %s", i, got, want)
		}
	}
	if outcomes["miss"] != 1 || outcomes["coalesced"] != dup-1 {
		t.Errorf("outcomes %v, want 1 miss + %d coalesced", outcomes, dup-1)
	}
}

func postBatch(t *testing.T, url string, breq BatchRequest) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, body.Bytes()
}

// TestBatchMatchesSequential pins the acceptance criterion: /v1/batch
// returns per-item statuses and results matching what the same requests
// produce as sequential single solves — including the error items.
func TestBatchMatchesSequential(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	in := testInstance()
	good := solveRequest("mpartition", in)
	good.K = 2
	greedyReq := solveRequest("greedy", in)
	greedyReq.K = 1
	unknown := solveRequest("no-such-solver", in)
	badFlags := solveRequest("greedy", in)
	badFlags.Budget = 5 // greedy does not consume -budget
	reqs := []SolveRequest{good, greedyReq, unknown, badFlags, good}
	// The second pass posts the batch again: every good item is then a
	// cache hit, whose assignment must not alias the pooled scratch that
	// served it, since the items are encoded only after the fan-out.
	for pass := 0; pass < 2; pass++ {
		batchMatchesSequential(t, ts.URL, reqs)
	}
}

// batchMatchesSequential posts reqs as one batch and then each as a
// single solve, and requires the same status, error or result per item.
func batchMatchesSequential(t *testing.T, url string, reqs []SolveRequest) {
	t.Helper()
	resp, body := postBatch(t, url, BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != len(reqs) {
		t.Fatalf("batch returned %d items for %d requests", len(br.Items), len(reqs))
	}

	for i, req := range reqs {
		sresp, sbody := postSolve(t, url, req)
		item := br.Items[i]
		if item.Status != sresp.StatusCode {
			t.Errorf("item %d: batch status %d, sequential %d (%s)", i, item.Status, sresp.StatusCode, sbody)
			continue
		}
		if sresp.StatusCode != http.StatusOK {
			if item.Error == "" {
				t.Errorf("item %d: error status %d with empty error message", i, item.Status)
			}
			var er ErrorResponse
			if err := json.Unmarshal(sbody, &er); err != nil {
				t.Fatal(err)
			}
			if item.Error != er.Error {
				t.Errorf("item %d: batch error %q, sequential %q", i, item.Error, er.Error)
			}
			continue
		}
		if item.Result == nil {
			t.Errorf("item %d: 200 with nil result", i)
			continue
		}
		ibuf, err := json.Marshal(item.Result)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stripVolatile(t, ibuf), stripVolatile(t, sbody); !bytes.Equal(got, want) {
			t.Errorf("item %d: batch result %s != sequential %s", i, got, want)
		}
	}
}

// TestBatchValidation: empty and oversized batches are rejected whole.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxBatch: 2})
	if resp, body := postBatch(t, ts.URL, BatchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %d %s, want 400", resp.StatusCode, body)
	}
	req := solveRequest("greedy", testInstance())
	req.K = 1
	over := BatchRequest{Requests: []SolveRequest{req, req, req}}
	if resp, body := postBatch(t, ts.URL, over); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %d %s, want 400", resp.StatusCode, body)
	}
	ok := BatchRequest{Requests: []SolveRequest{req, req}}
	if resp, body := postBatch(t, ts.URL, ok); resp.StatusCode != http.StatusOK {
		t.Errorf("at-limit batch: %d %s, want 200", resp.StatusCode, body)
	}
}

// TestBatchDuplicatesShareOneSolve: duplicates inside one batch hit the
// single-flight layer / LRU, not N engine calls.
func TestBatchDuplicatesShareOneSolve(t *testing.T) {
	sink := obs.New()
	_, ts := newTestServer(t, Config{Workers: 4, Obs: sink})
	req := solveRequest("lpt", testInstance())
	breq := BatchRequest{Requests: []SolveRequest{req, req, req, req}}
	resp, body := postBatch(t, ts.URL, breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	for i, item := range br.Items {
		if item.Status != http.StatusOK {
			t.Fatalf("item %d: %d %s", i, item.Status, item.Error)
		}
	}
	if misses := sink.Reg.Counter("cache.misses.lpt").Value(); misses != 1 {
		t.Errorf("cache.misses.lpt = %d for 4 identical batch items, want 1", misses)
	}
	if shared := sink.Reg.Counter("cache.hits.lpt").Value() + sink.Reg.Counter("cache.coalesced.lpt").Value(); shared != 3 {
		t.Errorf("hits+coalesced = %d, want 3", shared)
	}
}

// TestCachedExactKeepsDeadlineRails pins that the cache does not change
// what exact can solve: every request carries a deadline, which lifts
// exact's 20-job rail, and the flight's engine call must see that
// deadline as the uncached call does. A 24-job request answers 200 with
// the same makespan whether the cache is on or off.
func TestCachedExactKeepsDeadlineRails(t *testing.T) {
	const n = 24
	sizes := make([]int64, n)
	assign := make([]int, n)
	for j := range sizes {
		sizes[j] = int64(1 + j*7%13)
		if j >= n/2 {
			assign[j] = 1 + j%2
		}
	}
	req := solveRequest("exact", instance.MustNew(3, sizes, nil, assign))
	req.K = 2
	makespan := func(cfg Config) int64 {
		_, ts := newTestServer(t, cfg)
		resp, body := postSolve(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exact on %d jobs (CacheEntries %d): %d %s", n, cfg.CacheEntries, resp.StatusCode, body)
		}
		var r SolveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}
	uncached := makespan(Config{Workers: 1, CacheEntries: -1})
	if cached := makespan(Config{Workers: 1}); cached != uncached {
		t.Errorf("exact makespan %d through the cache, %d without it", cached, uncached)
	}
}

// TestSearchLimitUnprocessable pins the search-limit outcome: a solver
// cut off by its own rail answers 422 with the solver's message, and
// the outcome is never cached — a repeat is a fresh miss.
func TestSearchLimitUnprocessable(t *testing.T) {
	sink := obs.New()
	_, ts := newTestServer(t, Config{Workers: 1, Obs: sink})
	const n = 65 // one past ptas's default MaxJobs
	sizes := make([]int64, n)
	for j := range sizes {
		sizes[j] = int64(1 + j%5)
	}
	req := solveRequest("ptas", instance.MustNew(2, sizes, nil, make([]int, n)))
	req.Budget, req.Eps = 4, 0.5
	for i := 0; i < 2; i++ {
		resp, body := postSolve(t, ts.URL, req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("solve %d: status %d, want 422 (body %s)", i, resp.StatusCode, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Error != "ptas: state space exceeds limits" {
			t.Errorf("solve %d: error %q, want the solver's message", i, e.Error)
		}
	}
	if hits, misses := sink.Reg.Counter("cache.hits").Value(), sink.Reg.Counter("cache.misses").Value(); hits != 0 || misses != 2 {
		t.Errorf("cache.hits %d, cache.misses %d; want 0 and 2 (a search limit is never cached)", hits, misses)
	}
}
