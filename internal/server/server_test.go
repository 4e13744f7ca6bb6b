package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	rebalance "repro"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
)

// Test-only solvers, registered for one test by newTestServer and
// newLocalServer: "test-block" parks until its context fires
// (deadline/drain tests), "test-sleep" works for a bounded time while
// honoring cancellation (graceful-drain test) and "test-panic" panics.
// The first two signal on testStarted, made afresh for each test, when
// a solve starts.
var testStarted chan struct{}

func registerTestSolvers(t *testing.T) {
	if _, ok := engine.Lookup("test-block"); ok {
		return // already registered for this test or its parent
	}
	started := make(chan struct{}, 64)
	testStarted = started
	engine.RegisterTest(t, engine.Spec{
		Name: "test-block", Summary: "blocks until cancelled", Guarantee: "-",
		Run: func(ctx context.Context, in *instance.Instance, _ engine.Params) (instance.Solution, error) {
			started <- struct{}{}
			<-ctx.Done()
			return instance.Solution{}, ctx.Err()
		},
	})
	engine.RegisterTest(t, engine.Spec{
		Name: "test-sleep", Summary: "solves after a short sleep", Guarantee: "-",
		Run: func(ctx context.Context, in *instance.Instance, _ engine.Params) (instance.Solution, error) {
			started <- struct{}{}
			select {
			case <-time.After(100 * time.Millisecond):
				return instance.NewSolution(in, in.Assign), nil
			case <-ctx.Done():
				return instance.Solution{}, ctx.Err()
			}
		},
	})
	engine.RegisterTest(t, engine.Spec{
		Name: "test-panic", Summary: "panics", Guarantee: "-",
		Run: func(context.Context, *instance.Instance, engine.Params) (instance.Solution, error) {
			panic("kaboom")
		},
	})
}

func testInstance() *instance.Instance {
	return instance.MustNew(2, []int64{5, 4, 3, 2}, nil, []int{0, 0, 0, 0})
}

// newTestServer starts a Server plus an httptest front end and returns
// them with a cleanup that closes both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	registerTestSolvers(t)
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSolve(t *testing.T, url string, req SolveRequest) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(buf))
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

func solveRequest(solver string, in *instance.Instance) SolveRequest {
	req := SolveRequest{Solver: solver}
	req.Instance.Instance = *in
	return req
}

// canonicalSolve is the answer the server owes a request for in: a
// direct engine.Solve of in's canonical relabeling — its jobs sorted
// stably by (size, cost, initial processor) and renumbered to their
// positions — re-indexed onto in's own job order.
func canonicalSolve(solver string, in *instance.Instance, p engine.Params) (instance.Solution, error) {
	order := make([]int, in.N())
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := order[a], order[b]
		kx := [3]int64{in.Jobs[x].Size, in.Jobs[x].Cost, int64(in.Assign[x])}
		ky := [3]int64{in.Jobs[y].Size, in.Jobs[y].Cost, int64(in.Assign[y])}
		return slices.Compare(kx[:], ky[:]) < 0
	})
	rel := &instance.Instance{M: in.M, Jobs: make([]instance.Job, in.N()), Assign: make([]int, in.N())}
	for slot, j := range order {
		rel.Jobs[slot] = instance.Job{ID: slot, Size: in.Jobs[j].Size, Cost: in.Jobs[j].Cost}
		rel.Assign[slot] = in.Assign[j]
	}
	sol, err := engine.Solve(context.Background(), solver, rel, p)
	if err != nil {
		return sol, err
	}
	assign := make([]int, in.N())
	for slot, j := range order {
		assign[j] = sol.Assign[slot]
	}
	sol.Assign = assign
	return sol, nil
}

// TestSolveMatchesEngine pins the end-to-end contract: a solve served
// over HTTP returns exactly what a direct engine.Solve of the request's
// canonical relabeling computes, replayed onto the request's job order
// (canonicalSolve), for a greedy, an M-PARTITION, a PTAS and a budget
// run. The budget instance's own order answers makespan 11 when solved
// as given; its relabeling, and so the server, answers 9.
func TestSolveMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name   string
		in     *instance.Instance
		k      int
		budget int64
		eps    float64
	}{
		{name: "greedy", in: testInstance(), k: 2},
		{name: "mpartition", in: testInstance(), k: 2},
		{name: "ptas", in: testInstance(), budget: 2, eps: 0.5},
		{name: "budget", in: instance.MustNew(3, []int64{7, 5, 4, 3, 3, 2}, nil, []int{0, 0, 0, 1, 1, 2}), budget: 3},
	}
	for _, c := range cases {
		in := c.in
		req := solveRequest(c.name, in)
		req.K, req.Budget, req.Eps = c.k, c.budget, c.eps
		resp, body := postSolve(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", c.name, resp.StatusCode, body)
		}
		var got SolveResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		want, err := canonicalSolve(c.name, in, engine.Params{
			K: c.k, Budget: c.budget, Eps: c.eps, Workers: 1,
		})
		if err != nil {
			t.Fatalf("%s: direct solve: %v", c.name, err)
		}
		if got.Makespan != want.Makespan || got.Moves != want.Moves || got.MoveCost != want.MoveCost {
			t.Errorf("%s: served (makespan=%d moves=%d cost=%d) != direct (makespan=%d moves=%d cost=%d)",
				c.name, got.Makespan, got.Moves, got.MoveCost, want.Makespan, want.Moves, want.MoveCost)
		}
		if fmt.Sprint(got.Assign) != fmt.Sprint(want.Assign) {
			t.Errorf("%s: served assign %v != direct %v", c.name, got.Assign, want.Assign)
		}
		if got.InitialMakespan != in.InitialMakespan() || got.LowerBound != in.LowerBound() {
			t.Errorf("%s: context fields init=%d lb=%d, want %d, %d",
				c.name, got.InitialMakespan, got.LowerBound, in.InitialMakespan(), in.LowerBound())
		}
	}

	// A zero-job instance is valid: both kernels build empty rows and
	// answer with the empty solution, whose assign field is omitted.
	for _, name := range []string{"greedy", "mpartition"} {
		body := `{"solver":"` + name + `","k":2,"instance":{"m":2,"jobs":[],"assign":[]}}`
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&raw)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("empty %s: decode: %v", name, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("empty %s: status %d, body %v", name, resp.StatusCode, raw)
		}
		if got := string(raw["initial_makespan"]); got != "0" {
			t.Errorf("empty %s: initial_makespan %s, want 0", name, got)
		}
		if a, ok := raw["assign"]; ok {
			t.Errorf("empty %s: assign field %s present, want omitted", name, a)
		}
	}
}

// TestSolveSweep pins that sweep-kind solvers are servable with zero
// per-solver glue: the frontier over explicit ks matches a direct
// Frontier run.
func TestSolveSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	in := testInstance()
	req := solveRequest("frontier", in)
	req.Ks = []int{0, 1, 2}
	resp, body := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var got SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cache != "" {
		t.Errorf("sweep answered with cache %q, want none: sweeps are never cached", got.Cache)
	}
	want, err := rebalance.Frontier(context.Background(), in, req.Ks, rebalance.FrontierOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want) {
		t.Fatalf("served %d points, want %d", len(got.Points), len(want))
	}
	for i, p := range got.Points {
		if p.K != want[i].K || p.Makespan != want[i].Makespan || p.Moves != want[i].Moves {
			t.Errorf("point %d: served %+v, want %+v", i, p, want[i])
		}
	}
}

// TestSolveErrors covers the 4xx surface: unknown solver 404, malformed
// body 400, invalid instance 400, mismatched tuning parameter 400,
// infeasible instance 422.
func TestSolveErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := testInstance()

	resp, body := postSolve(t, ts.URL, solveRequest("nope", in))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown solver: status %d, want 404 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "greedy") {
		t.Errorf("404 body should list known solvers, got %s", body)
	}

	r2, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", r2.StatusCode)
	}

	bad := solveRequest("greedy", in)
	bad.Instance.Assign = []int{0} // wrong length
	resp, _ = postSolve(t, ts.URL, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid instance: status %d, want 400", resp.StatusCode)
	}

	wrongFlag := solveRequest("greedy", in)
	wrongFlag.Budget = 10 // greedy does not consume a budget
	resp, body = postSolve(t, ts.URL, wrongFlag)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong tuning param: status %d, want 400 (body %s)", resp.StatusCode, body)
	}

	// A conflict triangle on two machines has no feasible coloring.
	ci := instance.MustNew(2, []int64{1, 1, 1}, nil, []int{0, 0, 1})
	confReq := SolveRequest{Solver: "conflict"}
	confReq.Instance.Instance = *ci
	confReq.Instance.Conflicts = [][2]int{{0, 1}, {1, 2}, {0, 2}} // triangle on 2 machines
	resp, body = postSolve(t, ts.URL, confReq)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible: status %d, want 422 (body %s)", resp.StatusCode, body)
	}
}

// TestSolvePanicIsolated pins that a panicking solver yields a 500 for
// that request while the pool keeps serving.
func TestSolvePanicIsolated(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := testInstance()
	resp, body := postSolve(t, ts.URL, solveRequest("test-panic", in))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic solver: status %d, want 500 (body %s)", resp.StatusCode, body)
	}
	ok := solveRequest("greedy", in)
	ok.K = 2
	resp, _ = postSolve(t, ts.URL, ok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after panic: status %d, want 200", resp.StatusCode)
	}
}

// TestQueueFull saturates a 1-worker, 1-deep server and pins the 429 +
// Retry-After backpressure contract.
func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: time.Minute})
	release := saturate(t, s, ts.URL)
	defer release()

	resp, body := postSolve(t, ts.URL, solveRequest("test-block", testInstance()))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
}

// TestCachedHitSkipsQueueFull: a cached answer is served before
// admission, so a hit answers 200 from a saturated server whichever way
// it arrives — sampled by the tracer, spelled so that only the
// encoding/json fallback decodes it, or as a /v1/batch item — with
// queue_ns 0. A miss on the same server is still rejected with 429.
func TestCachedHitSkipsQueueFull(t *testing.T) {
	registerTestSolvers(t)
	escaped := bytes.Replace(hitBody, []byte(`"mpartition"`), []byte(`"mpartitio\u006e"`), 1)
	batch := append(append([]byte(`{"requests":[`), hitBody...), "]}"...)
	for _, tc := range []struct {
		name, path string
		body       []byte
		trace      *obs.SpanTracer
	}{
		{"sampled", "/v1/solve", hitBody, obs.NewSpanTracer(obs.SpanConfig{SampleRate: 1})},
		{"fallback-decoded", "/v1/solve", escaped, nil},
		{"batch item", "/v1/batch", batch, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: time.Minute, Trace: tc.trace})
			if resp, body := postBody(t, ts.URL+"/v1/solve", hitBody); resp.StatusCode != http.StatusOK {
				t.Fatalf("prime: status %d: %s", resp.StatusCode, body)
			}
			release := saturate(t, s, ts.URL)
			defer release()
			if resp, body := postSolve(t, ts.URL, solveRequest("test-block", testInstance())); resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("miss on the saturated server: status %d, want 429 (body %s)", resp.StatusCode, body)
			}

			resp, body := postBody(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("hit: status %d, want 200 (body %s)", resp.StatusCode, body)
			}
			var sr SolveResponse
			if tc.path == "/v1/batch" {
				var br BatchResponse
				if err := json.Unmarshal(body, &br); err != nil || len(br.Items) != 1 {
					t.Fatalf("batch response %s (err %v)", body, err)
				}
				it := br.Items[0]
				if it.Status != http.StatusOK || it.Result == nil {
					t.Fatalf("batch item: status %d, error %q, want 200", it.Status, it.Error)
				}
				sr = *it.Result
			} else if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Cache != "hit" || sr.Timing.QueueNS != 0 {
				t.Fatalf("hit answered with cache %q, queue_ns %d; want hit, 0", sr.Cache, sr.Timing.QueueNS)
			}
		})
	}
}

// saturate fills a Workers: 1, QueueDepth: 1 server: one test-block
// solve holds the slot and a second waits in the queue. The returned
// release cancels both through a drain and checks they answered 503.
func saturate(t *testing.T, s *Server, url string) (release func()) {
	t.Helper()
	block, err := json.Marshal(solveRequest("test-block", testInstance()))
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(block))
			if err != nil {
				t.Error(err)
				results <- 0
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	select {
	case <-testStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never started the blocking solve")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.core.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the second blocking solve never queued")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
		for i := 0; i < 2; i++ {
			if code := <-results; code != http.StatusServiceUnavailable {
				t.Errorf("cancelled blocker: status %d, want 503", code)
			}
		}
	}
}

// postBody posts a raw JSON body to url.
func postBody(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestDeadlineExpiry pins the 504 contract: a request deadline cancels
// the solver mid-search and surfaces as GatewayTimeout.
func TestDeadlineExpiry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := testInstance()
	req := solveRequest("test-block", in)
	req.TimeoutMS = 50
	start := time.Now()
	resp, body := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("504 took %v; the deadline should cancel the solve promptly", elapsed)
	}
}

// TestDeadlineWhileQueued pins that a request whose deadline expires
// before a worker frees up is answered 504 without burning a worker.
func TestDeadlineWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DefaultTimeout: time.Minute})
	in := testInstance()
	blocker := make(chan int, 1)
	go func() {
		resp, _ := postSolve(t, ts.URL, solveRequest("test-block", in))
		blocker <- resp.StatusCode
	}()
	select {
	case <-testStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the blocking solve")
	}
	req := solveRequest("greedy", in)
	req.K = 2
	req.TimeoutMS = 50
	resp, body := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline: status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx)
	<-blocker
}

// TestGracefulDrain pins the shutdown contract: draining flips readyz
// and new solves to 503, lets in-flight work finish, and Shutdown
// returns nil when everything completed within the grace period.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	in := testInstance()

	inFlight := make(chan *http.Response, 1)
	go func() {
		resp, _ := postSolve(t, ts.URL, solveRequest("test-sleep", in))
		inFlight <- resp
	}()
	select {
	case <-testStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the sleeping solve")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()

	// While draining: readyz 503, healthz 200, new solves 503.
	waitFor(t, func() bool { return s.Draining() })
	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", code)
	}
	if code := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200", code)
	}
	resp, _ := postSolve(t, ts.URL, solveRequest("greedy", in))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("solve while draining: %d, want 503", resp.StatusCode)
	}

	if err := <-done; err != nil {
		t.Fatalf("graceful drain returned %v, want nil", err)
	}
	if r := <-inFlight; r.StatusCode != http.StatusOK {
		t.Errorf("in-flight solve during graceful drain: %d, want 200", r.StatusCode)
	}
}

// TestDrainTimeoutCancelsStragglers pins the other half: when in-flight
// work outlives the grace period, Shutdown cancels it, reports the
// context error, and the straggler's handler answers 503.
func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DefaultTimeout: time.Minute})
	in := testInstance()
	straggler := make(chan int, 1)
	go func() {
		resp, _ := postSolve(t, ts.URL, solveRequest("test-block", in))
		straggler <- resp.StatusCode
	}()
	select {
	case <-testStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the blocking solve")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past timeout returned %v, want DeadlineExceeded", err)
	}
	select {
	case code := <-straggler:
		if code != http.StatusServiceUnavailable {
			t.Errorf("cancelled straggler: status %d, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("straggler handler never responded after forced drain")
	}
}

// TestDrainCancelsSharedFlight pins that a drain reaches a flight
// shared by two requests through its parties alone: the forced drain
// cancels both requests' contexts, both answer 503, the last to leave
// cancels the flight so the solver sees its context end, Shutdown
// returns with the inflight group drained, and nothing is cached.
func TestDrainCancelsSharedFlight(t *testing.T) {
	started := make(chan struct{}, 4)
	solverErr := make(chan error, 4)
	engine.RegisterTest(t, engine.Spec{
		Name: "test-shared-park", Summary: "parks until its context ends", Guarantee: "-",
		Run: func(ctx context.Context, _ *instance.Instance, _ engine.Params) (instance.Solution, error) {
			started <- struct{}{}
			<-ctx.Done()
			solverErr <- ctx.Err()
			return instance.Solution{}, ctx.Err()
		},
	})
	sink := obs.New()
	s, ts := newTestServer(t, Config{Workers: 2, DefaultTimeout: time.Minute, Obs: sink})
	body, err := json.Marshal(solveRequest("test-shared-park", testInstance()))
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the shared solve never started")
	}
	waitFor(t, func() bool { return sink.Reg.Counter("cache.coalesced").Value() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(ctx) }()
	select {
	case err := <-drained:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain past its grace returned %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned: a party of the shared flight outlived the drain")
	}
	for i := 0; i < 2; i++ {
		select {
		case code := <-codes:
			if code != http.StatusServiceUnavailable {
				t.Errorf("party of the drained flight: status %d, want 503", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a party of the drained flight never answered")
		}
	}
	select {
	case err := <-solverErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("solver's context ended with %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the shared solve's context was never cancelled")
	}
	if n := len(started); n != 0 {
		t.Errorf("engine started %d more times, want one shared solve", n)
	}
	if n := sink.Snapshot().Gauges["server.inflight"]; n != 0 {
		t.Errorf("server.inflight after drain = %d, want 0", n)
	}
	if n := sink.Snapshot().Gauges["cache.size"]; n != 0 {
		t.Errorf("cache.size after drain = %d, want 0 (a cancelled flight is never cached)", n)
	}
}

// TestSolversEndpoint pins GET /v1/solvers against the registry.
func TestSolversEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []SolverInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	byName := map[string]SolverInfo{}
	for _, i := range infos {
		byName[i.Name] = i
	}
	for _, name := range engine.Names() {
		if _, ok := byName[name]; !ok {
			t.Errorf("catalog missing registered solver %q", name)
		}
	}
	if g := byName["greedy"]; g.Kind != "solution" || len(g.Flags) != 1 || g.Flags[0] != "k" {
		t.Errorf("greedy catalog entry = %+v, want kind=solution flags=[k]", g)
	}
	if f := byName["frontier"]; f.Kind != "sweep" {
		t.Errorf("frontier catalog entry = %+v, want kind=sweep", f)
	}
}

// TestServerMetrics pins the obs wiring: request counters, per-solver
// latency histograms, and rejection counters land in the configured
// sink.
func TestServerMetrics(t *testing.T) {
	sink := obs.New()
	_, ts := newTestServer(t, Config{Workers: 1, Obs: sink})
	in := testInstance()
	req := solveRequest("greedy", in)
	req.K = 2
	for i := 0; i < 3; i++ {
		if resp, _ := postSolve(t, ts.URL, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d failed: %d", i, resp.StatusCode)
		}
	}
	snap := sink.Snapshot()
	if got := snap.Counters["server.requests"]; got != 3 {
		t.Errorf("server.requests = %d, want 3", got)
	}
	if got := snap.Counters["server.requests.greedy"]; got != 3 {
		t.Errorf("server.requests.greedy = %d, want 3", got)
	}
	if h, ok := snap.Histograms["server.latency_ns.greedy"]; !ok || h.Count != 3 {
		t.Errorf("server.latency_ns.greedy = %+v, want count 3", h)
	}
	if _, ok := snap.Histograms["server.queue_ns"]; !ok {
		t.Error("server.queue_ns histogram missing")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestBaseURLs pins the fleet-flag form of the address rule: entries
// are trimmed, empty ones dropped, and each normalized by BaseURL, so
// a shard listed as host:port matches the router's http:// spelling.
func TestBaseURLs(t *testing.T) {
	got := BaseURLs(" localhost:8081/, ,https://10.0.0.2:8082,")
	want := []string{"http://localhost:8081", "https://10.0.0.2:8082"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("BaseURLs = %q, want %q", got, want)
	}
	if got := BaseURLs(""); len(got) != 0 {
		t.Fatalf("BaseURLs(\"\") = %q, want none", got)
	}
}
