package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/instance"
)

func sessionCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	c := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c
}

func intp(v int) *int { return &v }

func TestSessionCreateDeltaGetLifecycle(t *testing.T) {
	c := sessionCore(t, Config{Workers: 1})
	st, err := c.SessionCreate(context.Background(), &SessionRequest{M: 2, MoveBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.M != 2 || st.N != 0 || st.Rev != 0 {
		t.Fatalf("create state: %+v", st)
	}
	res, err := c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{
		Op: "arrive", Job: 1, Size: 10, Proc: intp(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 || res.Makespan != 10 || res.Rev != 1 {
		t.Fatalf("delta state: %+v", res)
	}
	// Omitted proc = least-loaded placement (processor 1 here).
	res, err = c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{Op: "arrive", Job: 2, Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads[1] != 4 {
		t.Fatalf("least-loaded arrival loads: %v", res.Loads)
	}
	got, err := c.SessionGet(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 2 || got.Rev != res.Rev || got.ID != st.ID {
		t.Fatalf("get state: %+v", got)
	}
	if c.SessionCount() != 1 {
		t.Fatalf("session count %d", c.SessionCount())
	}
}

func TestSessionSeededCreateAndRebalanceOp(t *testing.T) {
	c := sessionCore(t, Config{Workers: 1})
	ext := instance.Extended{Instance: *instance.MustNew(3, []int64{30, 30, 30}, nil, []int{0, 0, 0})}
	st, err := c.SessionCreate(context.Background(), &SessionRequest{Instance: &ext, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 3 || st.M != 3 || st.Makespan != 90 {
		t.Fatalf("seeded state: %+v", st)
	}
	res, err := c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{Op: "rebalance", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebalanced || len(res.Moves) != 2 || res.Makespan != 30 {
		t.Fatalf("rebalance result: %+v", res)
	}
}

func TestSessionErrorMapping(t *testing.T) {
	c := sessionCore(t, Config{Workers: 1})
	var bad *BadRequestError
	if _, err := c.SessionCreate(context.Background(), &SessionRequest{M: 0}); !errors.As(err, &bad) {
		t.Fatalf("m=0 create: %v", err)
	}
	if _, err := c.SessionCreate(context.Background(), &SessionRequest{M: 2, Target: -1}); !errors.As(err, &bad) {
		t.Fatalf("negative target: %v", err)
	}
	st, err := c.SessionCreate(context.Background(), &SessionRequest{M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{Op: "warp"}); !errors.As(err, &bad) {
		t.Fatalf("unknown op: %v", err)
	}
	if _, err := c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{Op: "depart", Job: 9}); !errors.As(err, &bad) {
		t.Fatalf("unknown job: %v", err)
	}
	// Draining the last processor keeps its infeasibility class.
	if _, err := c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{Op: "proc_drain", Proc: intp(0)}); !errors.Is(err, instance.ErrInfeasible) {
		t.Fatalf("drain last proc: %v", err)
	}
	// Unknown and syntactically odd ids are both plain not-found.
	if _, err := c.SessionGet("no-such-session"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("unknown get: %v", err)
	}
	if _, err := c.SessionDelta(context.Background(), "", &SessionDeltaRequest{Op: "proc_add"}); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("empty id delta: %v", err)
	}
}

// A proc_drain must name its processor: one without proc is a bad
// request that leaves the session as it was, not a drain of
// processor 0.
func TestSessionDrainNeedsProc(t *testing.T) {
	c := sessionCore(t, Config{Workers: 1})
	ext := instance.Extended{Instance: *instance.MustNew(3, []int64{5, 4, 3}, nil, []int{0, 0, 1})}
	st, err := c.SessionCreate(context.Background(), &SessionRequest{Instance: &ext, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	var bad *BadRequestError
	if _, err := c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{Op: "proc_drain"}); !errors.As(err, &bad) {
		t.Fatalf("drain without proc: %v, want a bad request", err)
	}
	got, err := c.SessionGet(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != 3 || got.Rev != st.Rev || got.Loads[0] != 9 {
		t.Fatalf("rejected drain changed the session: %+v", got)
	}
}

func TestSessionTableFull(t *testing.T) {
	c := sessionCore(t, Config{Workers: 1, MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if _, err := c.SessionCreate(context.Background(), &SessionRequest{M: 1}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.SessionCreate(context.Background(), &SessionRequest{M: 1})
	if !errors.Is(err, ErrSessionTableFull) {
		t.Fatalf("err = %v, want ErrSessionTableFull", err)
	}
}

func TestSessionTTLExpiry(t *testing.T) {
	c := sessionCore(t, Config{Workers: 1, SessionTTL: 30 * time.Millisecond})
	st, err := c.SessionCreate(context.Background(), &SessionRequest{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Activity refreshes the TTL.
	time.Sleep(20 * time.Millisecond)
	if _, err := c.SessionGet(st.ID); err != nil {
		t.Fatalf("refreshed session gone: %v", err)
	}
	// Idle past the TTL expires it — whether the janitor or the lookup
	// notices first, the caller sees not-found.
	time.Sleep(60 * time.Millisecond)
	if _, err := c.SessionGet(st.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("expired get: %v", err)
	}
	// Expiry frees table capacity.
	if _, err := c.SessionCreate(context.Background(), &SessionRequest{M: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionConcurrentDeltasSerialize hammers one session from many
// goroutines: per-session serialization must make every arrival land
// (distinct ids, no lost updates) with a consistent final state.
func TestSessionConcurrentDeltasSerialize(t *testing.T) {
	c := sessionCore(t, Config{Workers: 2})
	st, err := c.SessionCreate(context.Background(), &SessionRequest{M: 4, MoveBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				if _, err := c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{
					Op: "arrive", Job: id, Size: int64(1 + id%17),
				}); err != nil {
					errs <- fmt.Errorf("worker %d job %d: %w", w, id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	got, err := c.SessionGet(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != workers*perWorker {
		t.Fatalf("n = %d, want %d", got.N, workers*perWorker)
	}
	if got.Rev != uint64(workers*perWorker) {
		t.Fatalf("rev = %d, want %d", got.Rev, workers*perWorker)
	}
	var total int64
	for _, l := range got.Loads {
		total += l
	}
	var want int64
	for id := 0; id < workers*perWorker; id++ {
		want += int64(1 + id%17)
	}
	if total != want {
		t.Fatalf("total load %d, want %d", total, want)
	}
}

// TestSessionDistinctSessionsParallel drives separate sessions from
// separate goroutines — they must not contend on each other's state.
func TestSessionDistinctSessionsParallel(t *testing.T) {
	c := sessionCore(t, Config{Workers: 2})
	const sessions, deltas = 6, 30
	ids := make([]string, sessions)
	for i := range ids {
		st, err := c.SessionCreate(context.Background(), &SessionRequest{M: 3, MoveBudget: 3})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for d := 0; d < deltas; d++ {
				if _, err := c.SessionDelta(context.Background(), id, &SessionDeltaRequest{
					Op: "arrive", Job: d, Size: int64(1 + (i+d)%9),
				}); err != nil {
					errs <- err
					return
				}
			}
		}(i, id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, id := range ids {
		st, err := c.SessionGet(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.N != deltas {
			t.Fatalf("session %s: n = %d, want %d", id, st.N, deltas)
		}
	}
}

// TestSessionEvictionRacesInflightDeltas races a tiny TTL (janitor
// firing every ~10ms) against continuous delta traffic: deltas must
// either apply or report ErrSessionNotFound — never panic, wedge, or
// corrupt the table.
func TestSessionEvictionRacesInflightDeltas(t *testing.T) {
	c := sessionCore(t, Config{Workers: 2, SessionTTL: 5 * time.Millisecond})
	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				st, err := c.SessionCreate(context.Background(), &SessionRequest{M: 2, MoveBudget: 1})
				if errors.Is(err, ErrSessionTableFull) {
					continue // churn outran eviction: the bound held, retry
				}
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < 5; i++ {
					_, err := c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{
						Op: "arrive", Job: i, Size: int64(1 + i),
					})
					if err != nil && !errors.Is(err, ErrSessionNotFound) {
						errs <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
					if err != nil {
						break // evicted mid-stream: expected under this TTL
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The janitor eventually clears everything once traffic stops.
	time.Sleep(50 * time.Millisecond)
	if n := c.SessionCount(); n != 0 {
		t.Fatalf("%d sessions leaked past the TTL", n)
	}
}

// TestShutdownClosesSessions pins the drain contract: Shutdown returns
// with every session closed, and later access reports not-found.
func TestShutdownClosesSessions(t *testing.T) {
	c := New(Config{Workers: 1})
	st, err := c.SessionCreate(context.Background(), &SessionRequest{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionDelta(context.Background(), st.ID, &SessionDeltaRequest{Op: "arrive", Job: 1, Size: 5}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionGet(st.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("post-drain get: %v", err)
	}
	if n := c.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived drain", n)
	}
}
