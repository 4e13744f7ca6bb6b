package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/server"
)

func sessionServer(t *testing.T, cfg server.Config) (*server.Server, *Client) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, New(ts.URL, nil)
}

func apiStatus(t *testing.T, err error) int {
	t.Helper()
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	return ae.StatusCode
}

// TestSessionLifecycleE2E drives create → deltas → get over real HTTP
// with the typed handle: every structural change and rebalance is
// reflected in the returned state.
func TestSessionLifecycleE2E(t *testing.T) {
	_, c := sessionServer(t, server.Config{Workers: 1})
	ctx := context.Background()
	sess, st, err := c.OpenSession(ctx, server.SessionRequest{M: 2, MoveBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.M != 2 || st.N != 0 {
		t.Fatalf("open state: %+v", st)
	}
	if _, err := sess.Arrive(ctx, 1, 10, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Arrive(ctx, 2, 4, 0, -1) // least-loaded → proc 1
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2 || res.Loads[1] != 4 {
		t.Fatalf("after arrivals: %+v", res)
	}
	if _, err := sess.Resize(ctx, 2, 25); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AddProc(ctx); err != nil {
		t.Fatal(err)
	}
	res, err = sess.DrainProc(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 2 || len(res.Forced) != 1 {
		t.Fatalf("after drain: %+v", res)
	}
	if _, err := sess.Depart(ctx, 1); err != nil {
		t.Fatal(err)
	}
	got, err := sess.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 1 || got.M != 2 || got.Makespan != 25 {
		t.Fatalf("final state: %+v", got)
	}
	// AttachSession reaches the same session.
	if st2, err := c.AttachSession(sess.ID()).State(ctx); err != nil || st2.Rev != got.Rev {
		t.Fatalf("attach: %+v %v", st2, err)
	}
}

// TestSessionManualRebalanceE2E pins the explicit rebalance op for
// manual sessions.
func TestSessionManualRebalanceE2E(t *testing.T) {
	_, c := sessionServer(t, server.Config{Workers: 1})
	ctx := context.Background()
	ext := instance.Extended{Instance: *instance.MustNew(3, []int64{30, 30, 30}, nil, []int{0, 0, 0})}
	sess, st, err := c.OpenSession(ctx, server.SessionRequest{Instance: &ext, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Makespan != 90 {
		t.Fatalf("seed makespan %d", st.Makespan)
	}
	res, err := sess.Rebalance(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 30 || len(res.Moves) != 2 {
		t.Fatalf("rebalance: %+v", res)
	}
}

// TestSessionErrorStatusesE2E pins the status mapping: 404 for unknown
// and expired sessions, 400 for invalid deltas, 422 for infeasible
// ones, 429 when the table is full.
func TestSessionErrorStatusesE2E(t *testing.T) {
	_, c := sessionServer(t, server.Config{
		Workers: 1, MaxSessions: 1, SessionTTL: 40 * time.Millisecond,
	})
	ctx := context.Background()
	if _, err := c.AttachSession("nope").Delta(ctx, server.SessionDeltaRequest{Op: "proc_add"}); apiStatus(t, err) != http.StatusNotFound {
		t.Fatalf("unknown session delta: %v", err)
	}
	if _, err := c.AttachSession("nope").State(ctx); apiStatus(t, err) != http.StatusNotFound {
		t.Fatalf("unknown session: %v", err)
	}
	sess, _, err := c.OpenSession(ctx, server.SessionRequest{M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Depart(ctx, 99); apiStatus(t, err) != http.StatusBadRequest {
		t.Fatalf("unknown job: %v", err)
	}
	if _, err := sess.Delta(ctx, server.SessionDeltaRequest{Op: "warp"}); apiStatus(t, err) != http.StatusBadRequest {
		t.Fatalf("unknown op: %v", err)
	}
	if _, err := sess.DrainProc(ctx, 0); apiStatus(t, err) != http.StatusUnprocessableEntity {
		t.Fatalf("drain last proc: %v", err)
	}
	// Table full: capacity 1 and the session above is live.
	_, _, err = c.OpenSession(ctx, server.SessionRequest{M: 1})
	if apiStatus(t, err) != http.StatusTooManyRequests {
		t.Fatalf("table full: %v", err)
	}
	// Idle past the TTL: the session expires and answers 404.
	time.Sleep(100 * time.Millisecond)
	if _, err := sess.State(ctx); apiStatus(t, err) != http.StatusNotFound {
		t.Fatalf("expired session: %v", err)
	}
}

// TestSessionDrainE2E pins the drain contract over HTTP: concurrent
// deltas each answer 200 or 503 (never a hang, tear, or 500), Shutdown
// returns with the table closed, and the session answers 404 after.
func TestSessionDrainE2E(t *testing.T) {
	s, c := sessionServer(t, server.Config{Workers: 2})
	ctx := context.Background()
	sess, _, err := c.OpenSession(ctx, server.SessionRequest{M: 2, MoveBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := sess.Arrive(ctx, w*100+i, int64(1+i%7), 0, -1)
				if err == nil {
					continue
				}
				var ae *APIError
				if !errors.As(err, &ae) ||
					(ae.StatusCode != http.StatusServiceUnavailable && ae.StatusCode != http.StatusNotFound) {
					errs <- err
				}
				return // draining reached this worker; stop sending
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := sess.State(ctx); apiStatus(t, err) != http.StatusNotFound {
		t.Fatalf("post-drain state: %v", err)
	}
	if _, _, err := c.OpenSession(ctx, server.SessionRequest{M: 1}); apiStatus(t, err) != http.StatusServiceUnavailable {
		t.Fatalf("post-drain create: %v", err)
	}
}
