package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/verify"
)

// TestFlightCopiesItsRequest pins that a cache flight owns its inputs.
// The flight's initiator leaves at its deadline while a waiter, a
// permuted twin, stays; the pooled scratch that decoded the initiator's
// body then serves other requests of the same shape. The solver reads
// its instance only after those requests, so a flight that still
// aliased the scratch would solve one of them (and race with it under
// -race). The waiter's 200 must verify against its own instance.
func TestFlightCopiesItsRequest(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	engine.RegisterTest(t, engine.Spec{
		Name: "test-gated-greedy", Summary: "greedy once released", Guarantee: "-",
		Caps: engine.Caps{K: true},
		Run: func(ctx context.Context, in *instance.Instance, p engine.Params) (instance.Solution, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return instance.Solution{}, ctx.Err()
			}
			return engine.Solve(ctx, "greedy", in, p)
		},
	})
	sink := obs.New()
	_, ts := newTestServer(t, Config{Workers: 4, Obs: sink})

	initiator := solveRequest("test-gated-greedy", instance.MustNew(3,
		[]int64{9, 9, 7, 5, 4, 4, 3, 2}, nil, []int{0, 0, 0, 0, 1, 1, 0, 2}))
	initiator.K, initiator.TimeoutMS = 3, 300
	twin := &instance.Instance{M: 3}
	for j := range initiator.Instance.Jobs {
		r := len(initiator.Instance.Jobs) - 1 - j
		twin.Jobs = append(twin.Jobs, instance.Job{ID: j, Size: initiator.Instance.Jobs[r].Size, Cost: 1})
		twin.Assign = append(twin.Assign, initiator.Instance.Assign[r])
	}
	waiter := solveRequest("test-gated-greedy", twin)
	waiter.K = 3

	initiatorCode := make(chan int, 1)
	go func() {
		resp, _ := postSolve(t, ts.URL, initiator)
		initiatorCode <- resp.StatusCode
	}()
	<-started
	type answer struct {
		code int
		body []byte
	}
	waited := make(chan answer, 1)
	go func() {
		resp, body := postSolve(t, ts.URL, waiter)
		waited <- answer{resp.StatusCode, body}
	}()
	waitFor(t, func() bool { return sink.Reg.Counter("cache.coalesced").Value() == 1 })
	if code := <-initiatorCode; code != http.StatusGatewayTimeout {
		t.Fatalf("initiator past its deadline answered %d, want 504", code)
	}

	// Same-shaped requests now decode into the pooled scratches,
	// the initiator's among them.
	for i := 0; i < 8; i++ {
		other := solveRequest("greedy", instance.MustNew(2,
			[]int64{int64(20 + i), 1, 1, 1, 1, 1, 1, 1}, nil, []int{1, 1, 1, 1, 1, 1, 1, 1}))
		other.K = 1
		if resp, body := postSolve(t, ts.URL, other); resp.StatusCode != http.StatusOK {
			t.Fatalf("other request %d: %d %s", i, resp.StatusCode, body)
		}
	}
	close(release)

	got := <-waited
	if got.code != http.StatusOK {
		t.Fatalf("waiter answered %d %s, want 200", got.code, got.body)
	}
	var resp SolveResponse
	if err := json.Unmarshal(got.body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "coalesced" {
		t.Fatalf("waiter cache %q, want coalesced", resp.Cache)
	}
	rep, err := verify.WithinMoves(twin, resp.Assign, waiter.K)
	if err != nil || rep.Makespan != resp.Makespan || rep.Moves != resp.Moves || rep.MoveCost != resp.MoveCost {
		t.Fatalf("waiter's answer %+v fails verify on its own instance: %+v, %v", resp, rep, err)
	}
	want, err := engine.Solve(context.Background(), "greedy", twin, engine.Params{K: waiter.K})
	if err != nil || want.Makespan != resp.Makespan {
		t.Fatalf("waiter's makespan %d, greedy on its instance %d (%v)", resp.Makespan, want.Makespan, err)
	}
}

// TestProcessorBoundAnswers400 pins the processor bound on every path
// a request enters with an m: a solve, a peek, a batch item, a session
// created with m or with an instance, and a proc_add delta that would
// grow a session past the bound. Each answers 400 without allocating
// per-processor state.
func TestProcessorBoundAnswers400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const huge = 1 << 40
	instanceJSON := fmt.Sprintf(`{"m":%d,"jobs":[{"id":0,"size":5},{"id":1,"size":3}],"assign":[0,1]}`, huge)
	solve := `{"solver":"mpartition","k":1,"instance":` + instanceJSON + `}`
	for _, c := range []struct{ name, path, body string }{
		{"solve", "/v1/solve", solve},
		{"peek", "/v1/peek", solve},
		{"session-m", "/v1/session", fmt.Sprintf(`{"m":%d}`, huge)},
		{"session-instance", "/v1/session", `{"instance":` + instanceJSON + `}`},
		{"solve-just-past", "/v1/solve", fmt.Sprintf(`{"solver":"greedy","instance":{"m":%d,"jobs":[{"id":0,"size":5}],"assign":[0]}}`, dispatch.MaxProcessors+1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postBody(t, ts.URL+c.path, []byte(c.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d %s, want 400", resp.StatusCode, body)
			}
		})
	}
	t.Run("batch", func(t *testing.T) {
		resp, body := postBody(t, ts.URL+"/v1/batch", []byte(`{"requests":[`+solve+`]}`))
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil || resp.StatusCode != http.StatusOK || len(br.Items) != 1 {
			t.Fatalf("batch: status %d, %v, %s", resp.StatusCode, err, body)
		}
		if br.Items[0].Status != http.StatusBadRequest {
			t.Fatalf("batch item status %d (%s), want 400", br.Items[0].Status, br.Items[0].Error)
		}
	})
	t.Run("proc_add", func(t *testing.T) {
		resp, body := postBody(t, ts.URL+"/v1/session", []byte(fmt.Sprintf(`{"m":%d}`, dispatch.MaxProcessors)))
		var st SessionState
		if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("session at the bound: status %d, %v, %s", resp.StatusCode, err, body)
		}
		resp, body = postBody(t, ts.URL+"/v1/session/"+st.ID+"/delta", []byte(`{"op":"proc_add"}`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("proc_add past the bound: status %d %s, want 400", resp.StatusCode, body)
		}
	})
}
