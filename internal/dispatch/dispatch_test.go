package dispatch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
)

// registerGate registers "dispatch-test-gate" for the duration of the
// test. Each solve announces its k on started and holds its slot until
// one token arrives on release.
func registerGate(t *testing.T) (started chan int, release chan struct{}) {
	started = make(chan int, 64)
	release = make(chan struct{})
	engine.RegisterTest(t, engine.Spec{
		Name: "dispatch-test-gate", Summary: "reports its k, then parks until released or cancelled", Guarantee: "-",
		Run: func(ctx context.Context, in *instance.Instance, p engine.Params) (instance.Solution, error) {
			started <- p.K
			select {
			case <-release:
			case <-ctx.Done():
			}
			return instance.NewSolution(in, in.Assign), nil
		},
	})
	return started, release
}

func coreReq(k int) *Request {
	in := instance.MustNew(2, []int64{5, 4, 3, 2}, nil, []int{0, 0, 0, 0})
	req := &Request{Solver: "mpartition", K: k}
	req.Instance.Instance = *in
	return req
}

// TestCoreDoSolves drives the core directly — no transport at all —
// and checks the full result shape: solution, cache outcome, timings.
func TestCoreDoSolves(t *testing.T) {
	c := New(Config{Workers: 2, Obs: obs.New()})
	t.Cleanup(c.Close)
	ctx := context.Background()

	req := coreReq(2)
	if err := c.Validate(req); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	res, err := c.Do(ctx, req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("solve error: %v", res.Err)
	}
	if res.Cache != "miss" {
		t.Fatalf("first solve Cache = %q, want miss", res.Cache)
	}
	if len(res.Sol.Assign) != 4 {
		t.Fatalf("assign length %d, want 4", len(res.Sol.Assign))
	}
	res, err = c.Do(ctx, req)
	if err != nil || res.Err != nil {
		t.Fatalf("second Do: %v / %v", err, res.Err)
	}
	if res.Cache != "hit" {
		t.Fatalf("second solve Cache = %q, want hit", res.Cache)
	}
}

// TestCoreValidateTaxonomy pins the typed errors transports map to
// statuses: unknown solver (with the catalog in the message),
// malformed instance, and parameter misuse.
func TestCoreValidateTaxonomy(t *testing.T) {
	c := New(Config{Workers: 1})
	t.Cleanup(c.Close)

	req := coreReq(2)
	req.Solver = "nope"
	err := c.Validate(req)
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("unknown solver err = %v, want ErrUnknownSolver", err)
	}

	var bad *BadRequestError
	req = coreReq(2)
	req.Instance.Instance.M = 0
	if err := c.Validate(req); !errors.As(err, &bad) {
		t.Fatalf("invalid instance err = %v, want BadRequestError", err)
	}

	req = coreReq(2)
	req.Ks = []int{1, 2} // ks on a non-sweep solver
	if err := c.Validate(req); !errors.As(err, &bad) {
		t.Fatalf("ks on non-sweep err = %v, want BadRequestError", err)
	}
}

// TestCoreQueueFull pins fail-fast admission and first-come-first-
// served waiting: with every slot held and QueueDepth solves waiting,
// the next Do returns ErrQueueFull without waiting, and as the holders
// finish one at a time the waiters take the freed slots in arrival
// order.
func TestCoreQueueFull(t *testing.T) {
	for _, tc := range []struct{ workers, depth int }{{1, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("workers=%d,depth=%d", tc.workers, tc.depth), func(t *testing.T) {
			gateStarted, gateRelease := registerGate(t)
			c := New(Config{Workers: tc.workers, QueueDepth: tc.depth, CacheEntries: -1, Obs: obs.New()})
			t.Cleanup(c.Close)
			gateReq := func(k int) *Request {
				req := coreReq(k)
				req.Solver = "dispatch-test-gate"
				return req
			}
			var wg sync.WaitGroup
			start := func(k int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if res, err := c.Do(context.Background(), gateReq(k)); err != nil || res.Err != nil {
						t.Errorf("Do(k=%d) = %v / %v", k, err, res.Err)
					}
				}()
			}
			for i := 0; i < tc.workers; i++ { // holders take every slot
				start(100 + i)
				<-gateStarted
			}
			for i := 1; i <= tc.depth; i++ { // waiters arrive one at a time
				start(i)
				for parkedInDo() < i {
					time.Sleep(time.Millisecond)
				}
			}
			if n := c.QueueLen(); n != tc.depth {
				t.Fatalf("QueueLen with %d waiters parked = %d", tc.depth, n)
			}

			if _, err := c.Do(context.Background(), gateReq(0)); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("Do with full queue = %v, want ErrQueueFull", err)
			}
			// Each release frees one slot, which the oldest waiter takes.
			for want := 1; want <= tc.depth; want++ {
				gateRelease <- struct{}{}
				if got := <-gateStarted; got != want {
					t.Fatalf("freed slot went to waiter %d, want %d (arrival order)", got, want)
				}
			}
			for i := 0; i < tc.workers; i++ {
				gateRelease <- struct{}{}
			}
			wg.Wait()
			if n := c.QueueLen(); n != 0 {
				t.Fatalf("QueueLen after the waiters ran = %d, want 0", n)
			}
		})
	}
}

// parkedInDo counts goroutines parked in Do's wait for a slot, the only
// select Do blocks in. A test that needs a known arrival order starts
// the next waiter only once the previous one is parked.
func parkedInDo() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "[select]:\nrepro/internal/dispatch.(*Core).Do(")
}

// TestCoreDrainRace races solves, session creates and session deltas
// against Shutdown. Every call either completes or is refused with the
// drain error, which wraps context.Canceled (503 over HTTP); Shutdown
// returns; and the queue and the server.inflight gauge end at zero.
// Under -race it pins that joining the drain group never races
// Shutdown's wait on it.
func TestCoreDrainRace(t *testing.T) {
	sink := obs.New()
	c := New(Config{Workers: 2, QueueDepth: 64, MaxSessions: 1 << 20, Obs: sink})
	ctx := context.Background()
	sess, err := c.SessionCreate(ctx, &SessionRequest{M: 2, MoveBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < cap(errs); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				var err error
				switch g % 3 {
				case 0:
					var res Result
					if res, err = c.Do(ctx, coreReq(1+i%3)); err == nil && res.Err != nil {
						err = fmt.Errorf("solve failed: %w", res.Err)
					}
				case 1:
					_, err = c.SessionCreate(ctx, &SessionRequest{M: 2})
				case 2:
					_, err = c.SessionDelta(ctx, sess.ID, &SessionDeltaRequest{Op: "arrive", Job: g<<20 + i, Size: 1})
				}
				if err == nil {
					continue
				}
				if !errors.Is(err, errDraining) || !errors.Is(err, context.Canceled) {
					errs <- fmt.Errorf("caller %d: %w, want the drain refusal", g, err)
				}
				return
			}
		}()
	}
	// Let the callers run a while. A sleep, not a handshake: synchronizing
	// with them would order their earlier joins before Shutdown's wait,
	// and the race detector would no longer see those joins as
	// concurrent with it.
	time.Sleep(5 * time.Millisecond)
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := c.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := c.QueueLen(); n != 0 {
		t.Errorf("QueueLen after drain = %d, want 0", n)
	}
	if n := sink.Snapshot().Gauges["server.inflight"]; n != 0 {
		t.Errorf("server.inflight after drain = %d, want 0", n)
	}
}

// TestCoreDeadline pins that a request-supplied timeout cancels the
// solve mid-search and surfaces context.DeadlineExceeded.
func TestCoreDeadline(t *testing.T) {
	engine.RegisterTest(t, engine.Spec{
		Name: "dispatch-test-hang", Summary: "parks until cancelled", Guarantee: "-",
		Run: func(ctx context.Context, _ *instance.Instance, _ engine.Params) (instance.Solution, error) {
			<-ctx.Done()
			return instance.Solution{}, ctx.Err()
		},
	})
	c := New(Config{Workers: 1, CacheEntries: -1})
	t.Cleanup(c.Close)

	req := coreReq(1)
	req.Solver = "dispatch-test-hang"
	req.TimeoutMS = 20
	_, err := c.Do(context.Background(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do past deadline = %v, want DeadlineExceeded", err)
	}
}

// TestCoreShutdownDrains pins the drain contract: Shutdown waits for
// in-flight work, and the core reports Draining.
func TestCoreShutdownDrains(t *testing.T) {
	c := New(Config{Workers: 2})
	done := make(chan Result, 1)
	go func() {
		res, _ := c.Do(context.Background(), coreReq(2))
		done <- res
	}()
	res := <-done
	if res.Err != nil {
		t.Fatalf("solve before shutdown: %v", res.Err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !c.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
}

// TestShutdownWaitsForFlight pins that cache flights are in the drain
// group: a solver that keeps running 100 ms after its context ends has
// returned by the time Shutdown, past its grace, or Close returns.
func TestShutdownWaitsForFlight(t *testing.T) {
	var returned atomic.Bool
	started := make(chan struct{}, 1)
	engine.RegisterTest(t, engine.Spec{
		Name: "dispatch-test-linger", Summary: "parks until cancelled, then runs 100 ms more", Guarantee: "-",
		Run: func(ctx context.Context, _ *instance.Instance, _ engine.Params) (instance.Solution, error) {
			started <- struct{}{}
			<-ctx.Done()
			time.Sleep(100 * time.Millisecond)
			returned.Store(true)
			return instance.Solution{}, ctx.Err()
		},
	})
	for _, name := range []string{"Shutdown", "Close"} {
		t.Run(name, func(t *testing.T) {
			returned.Store(false)
			c := New(Config{Workers: 1})
			req := coreReq(0)
			req.Solver = "dispatch-test-linger"
			done := make(chan error, 1)
			go func() {
				_, err := c.Do(context.Background(), req)
				done <- err
			}()
			<-started
			if name == "Close" {
				c.Close()
			} else {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				if err := c.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Shutdown past its grace returned %v, want DeadlineExceeded", err)
				}
			}
			if !returned.Load() {
				t.Fatalf("%s returned while the flight's solver was still running", name)
			}
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("the drained solve returned %v, want Canceled", err)
			}
		})
	}
}

// TestDoUsesProbedKey pins key-once: a request whose hit probe missed
// is solved under the probe's key, and Do does not key it again. A
// probe of request b handed to request a stores a's result where b's
// next probe finds it, which a recomputed key would not; the key a
// missed probe leaves on its own request is the one Canonicalize
// computes.
func TestDoUsesProbedKey(t *testing.T) {
	c := New(Config{Workers: 1})
	defer c.Close()
	ctx := context.Background()
	spec, _ := engine.Lookup("mpartition")

	a := coreReq(2)
	var hs HitScratch
	if _, ok := c.TryCachedSolve(&hs, a); ok {
		t.Fatal("probe of a cold cache hit")
	}
	want := cache.Canonicalize("mpartition", spec.Caps, &a.Instance, engine.Params{K: 2})
	if !a.probe.keyed || a.probe.can.Key != want.Key {
		t.Fatal("a missed probe did not leave the request's canonical key on it")
	}
	res, err := c.Do(ctx, a)
	if err != nil || res.Err != nil || res.Cache != "miss" {
		t.Fatalf("a: cache %q, err %v / %v (want a miss)", res.Cache, err, res.Err)
	}
	hit, ok := c.TryCachedSolve(&hs, a)
	if !ok || hit.Err != nil || hit.Cache != "hit" || !slices.Equal(hit.Sol.Assign, res.Sol.Assign) {
		t.Fatalf("repeat probe: hit %v, cache %q, err %v, assign %v (want %v)", ok, hit.Cache, hit.Err, hit.Sol.Assign, res.Sol.Assign)
	}

	// Hand the probe key of b (k=3) to a2 (k=4), neither of them stored
	// yet: the solve must land under b's key.
	b := coreReq(3)
	if _, ok := c.TryCachedSolve(&hs, b); ok {
		t.Fatal("probe of b hit before b was solved")
	}
	a2 := coreReq(4)
	a2.probe = b.probe
	if res, err := c.Do(ctx, a2); err != nil || res.Cache != "miss" {
		t.Fatalf("a2: cache %q, err %v (want a miss)", res.Cache, err)
	}
	if _, ok := c.TryCachedSolve(&hs, b); !ok {
		t.Fatal("Do recomputed the key instead of using the one handed to it")
	}
	if _, ok := c.TryCachedSolve(&hs, a2); ok {
		t.Fatal("a2 was stored under its own key, not the handed one")
	}
}
