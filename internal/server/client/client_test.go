package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/server"
)

// TestClientRoundTrip drives the typed client against a real Server:
// the solve result must match a direct engine.Solve, and the catalog
// must cover the registry.
func TestClientRoundTrip(t *testing.T) {
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := New(ts.URL, nil)
	ctx := context.Background()

	if err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("Healthy: %v", err)
	}

	in := instance.MustNew(2, []int64{5, 4, 3, 2}, nil, []int{0, 0, 0, 0})
	req := server.SolveRequest{Solver: "mpartition", K: 2}
	req.Instance.Instance = *in
	resp, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := engine.Solve(ctx, "mpartition", in, engine.Params{K: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Makespan != want.Makespan || resp.Moves != want.Moves {
		t.Errorf("remote solve (makespan=%d moves=%d) != direct (makespan=%d moves=%d)",
			resp.Makespan, resp.Moves, want.Makespan, want.Moves)
	}

	infos, err := c.Solvers(ctx)
	if err != nil {
		t.Fatalf("Solvers: %v", err)
	}
	names := map[string]bool{}
	for _, i := range infos {
		names[i.Name] = true
	}
	for _, n := range engine.Names() {
		if !names[n] {
			t.Errorf("catalog missing %q", n)
		}
	}

	// Unknown solver surfaces as a typed *APIError with the 404 status.
	req.Solver = "nope"
	_, err = c.Solve(ctx, req)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Errorf("unknown solver error = %v, want *APIError 404", err)
	}
}

// TestClientBatch drives the typed batch method against a real Server:
// per-item statuses and results must match individual Solve calls.
func TestClientBatch(t *testing.T) {
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := New(ts.URL, nil)
	ctx := context.Background()

	in := instance.MustNew(2, []int64{5, 4, 3, 2}, nil, []int{0, 0, 0, 0})
	good := server.SolveRequest{Solver: "greedy", K: 2}
	good.Instance.Instance = *in
	bad := server.SolveRequest{Solver: "nope"}
	bad.Instance.Instance = *in

	items, err := c.Batch(ctx, []server.SolveRequest{good, bad, good})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	single, err := c.Solve(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		item := items[i]
		if item.Status != http.StatusOK || item.Result == nil {
			t.Fatalf("item %d: status %d, error %q", i, item.Status, item.Error)
		}
		if item.Result.Makespan != single.Makespan || item.Result.Moves != single.Moves {
			t.Errorf("item %d: (makespan=%d moves=%d) != single solve (makespan=%d moves=%d)",
				i, item.Result.Makespan, item.Result.Moves, single.Makespan, single.Moves)
		}
	}
	if items[1].Status != http.StatusNotFound || items[1].Error == "" {
		t.Errorf("unknown-solver item: status %d error %q, want 404 with message", items[1].Status, items[1].Error)
	}
}

// TestAPIErrorParsing pins the error decoding against a stub endpoint:
// message, status and Retry-After all land in the typed error.
func TestAPIErrorParsing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"admission queue full"}`))
	}))
	defer ts.Close()

	c := New(ts.URL, nil)
	err := c.Ready(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.StatusCode != http.StatusTooManyRequests {
		t.Errorf("StatusCode = %d, want 429", ae.StatusCode)
	}
	if ae.Message != "admission queue full" {
		t.Errorf("Message = %q, want the server's error string", ae.Message)
	}
	if ae.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", ae.RetryAfter)
	}
}

// TestReadyReportsDraining: a readiness 503 carries its reason in the
// body's "status", and the typed error reports it as the message.
func TestReadyReportsDraining(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close() // drained: /readyz now answers 503
	err := New(ts.URL, nil).Ready(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable || ae.Message != "draining" {
		t.Fatalf("Ready on a draining server: %v, want a 503 APIError with message \"draining\"", err)
	}
}

// TestBaseURLPromotion pins that a bare host:port grows an http scheme.
func TestBaseURLPromotion(t *testing.T) {
	c := New("localhost:9999/", nil)
	if c.base != "http://localhost:9999" {
		t.Errorf("base = %q, want scheme promoted and slash trimmed", c.base)
	}
	c = New("https://example.com", nil)
	if c.base != "https://example.com" {
		t.Errorf("base = %q, want explicit scheme preserved", c.base)
	}
}

// TestPeerFillContactsOnlyListedPeers pins the peer-fill allow list: a
// shard whose X-Peer-Fill header names a peer outside its list never
// sends that peer a request, and one naming a listed peer (listed in a
// different spelling of the same base URL) peeks it once.
func TestPeerFillContactsOnlyListedPeers(t *testing.T) {
	var peeks atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peeks.Add(1)
		http.Error(w, `{"error":"not cached"}`, http.StatusNotFound)
	}))
	defer peer.Close()

	in := instance.MustNew(2, []int64{5, 4, 3, 2}, nil, []int{0, 0, 0, 0})
	req := server.SolveRequest{Solver: "mpartition", K: 2}
	req.Instance.Instance = *in
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		list  string
		peeks int64
	}{
		{"unlisted", "http://127.0.0.1:1", 0},
		{"listed", strings.TrimPrefix(peer.URL, "http://") + "/", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			peeks.Store(0)
			s := server.New(server.Config{Workers: 1, PeerFill: PeerFill(nil, time.Second, []string{c.list})})
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				s.Close()
			}()
			hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			hr.Header.Set("X-Peer-Fill", peer.URL)
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("solve status %d, want 200", resp.StatusCode)
			}
			if got := peeks.Load(); got != c.peeks {
				t.Fatalf("peer received %d requests, want %d", got, c.peeks)
			}
		})
	}
}
