package cache

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
)

// registerCountSolver registers "cachetest-count", a trivial solver
// that keeps every job in place, for the duration of the test.
func registerCountSolver(t *testing.T) {
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-count", Summary: "keeps every job in place", Guarantee: "-",
		Run: func(_ context.Context, in *instance.Instance, _ engine.Params) (instance.Solution, error) {
			return instance.NewSolution(in, in.Assign), nil
		},
	})
}

// solve is Solve on a request keyed as the dispatch core keys one no
// probe keyed: with the allocating Canonicalize.
func solve(c *Cache, ctx context.Context, solver string, ext *instance.Extended, p engine.Params, peer string) (instance.Solution, Stats, error) {
	spec, _ := engine.Lookup(solver)
	return c.Solve(ctx, spec, ext, p, peer, Canonicalize(solver, spec.Caps, ext, p))
}

// solveOutcome is Solve with no peer, reduced to the outcome the
// single-flight assertions check.
func solveOutcome(c *Cache, ctx context.Context, solver string, ext *instance.Extended, p engine.Params) (instance.Solution, Outcome, error) {
	sol, st, err := solve(c, ctx, solver, ext, p, "")
	return sol, st.Outcome, err
}

func testExt() *instance.Extended {
	return extOf(instance.MustNew(3, []int64{7, 5, 4, 3, 3, 2}, nil, []int{0, 0, 0, 1, 1, 2}))
}

// solverParams builds Params exercising exactly the capabilities the
// spec advertises, on an instance with n jobs.
func solverParams(spec engine.Spec, n int) engine.Params {
	p := engine.Params{Workers: 1}
	if spec.Caps.K {
		p.K = 2
	}
	if spec.Caps.Budget {
		p.Budget = 3
	}
	if spec.Caps.NeedsExtended {
		p.Allowed = make([][]int, n)
	}
	return p
}

// canonicalReference is what every served answer must equal: the
// engine's solve of the request's canonical relabeling, re-indexed
// slot by slot onto the request's own job order.
func canonicalReference(t *testing.T, spec engine.Spec, ext *instance.Extended, p engine.Params) instance.Solution {
	t.Helper()
	can := Canonicalize(spec.Name, spec.Caps, ext, p)
	rel := can.relabel(ext)
	sol, err := engine.Solve(context.Background(), spec.Name, &rel.Instance, p)
	if err != nil {
		t.Fatalf("reference solve of the relabeling: %v", err)
	}
	assign := make([]int, len(sol.Assign))
	for slot, proc := range sol.Assign {
		assign[can.job(slot)] = proc
	}
	sol.Assign = assign
	return sol
}

// TestCachedVsFreshAllSolvers runs every registered solution-kind
// solver twice through the cache and asserts that the miss and the hit
// both equal, byte for byte, the engine's solve of the canonical
// relabeling replayed onto the request's order. testExt is not in
// canonical order, and the reference is not the engine's solve of the
// request's own order: for budget that answers makespan 11 where the
// relabeling answers 9.
func TestCachedVsFreshAllSolvers(t *testing.T) {
	for _, spec := range engine.Specs() {
		if spec.Kind != engine.KindSolution || strings.HasPrefix(spec.Name, "cachetest-") {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			ext := testExt()
			p := solverParams(spec, ext.N())
			if spec.Caps.NeedsExtended {
				ext.Allowed = p.Allowed
			}
			c := New(Config{})
			want := canonicalReference(t, spec, ext, p)
			miss, out, err := solveOutcome(c, context.Background(), spec.Name, ext, p)
			if err != nil || out != Miss {
				t.Fatalf("first cache solve: outcome %v, err %v", out, err)
			}
			hit, out, err := solveOutcome(c, context.Background(), spec.Name, ext, p)
			if err != nil || out != Hit {
				t.Fatalf("second cache solve: outcome %v, err %v", out, err)
			}
			for name, got := range map[string]instance.Solution{"miss": miss, "hit": hit} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %+v != reference %+v", name, got, want)
				}
			}
		})
	}
}

// TestFlightOneAnswerPerKey pins that a served answer depends on the
// key alone, not on the job order that asked or the route that
// answered. For every solution-kind solver, on random instances, five
// requests in five random job orders — a flight's initiator, a waiter
// coalesced onto it, a later hit, a peer-fill hit on a second cache and
// a solve on a cache with caching disabled — answer the same makespan,
// moves and move cost and put the same jobs, by (size, cost, initial
// processor), on the same processors; and the initiator's answer is
// the engine's solve of the canonical relabeling. The solver runs
// behind a gate so the waiter surely joins the flight. The instances
// are testExt, whose budget answer depends on the job order it is
// solved in, and random ones. An extended request is keyed in its own
// order, so its five requests are copies.
func TestFlightOneAnswerPerKey(t *testing.T) {
	for _, spec := range replaySolvers() {
		t.Run(spec.Name, func(t *testing.T) {
			started := make(chan struct{}, 1)
			var release chan struct{}
			engine.RegisterTest(t, engine.Spec{
				Name: "cachetest-one-" + spec.Name, Summary: spec.Name + " once released", Guarantee: "-",
				Caps: spec.Caps,
				Run: func(ctx context.Context, in *instance.Instance, p engine.Params) (instance.Solution, error) {
					select {
					case started <- struct{}{}:
					default:
					}
					<-release
					return engine.Solve(ctx, spec.Name, in, p)
				},
			})
			gated, _ := engine.Lookup("cachetest-one-" + spec.Name)
			rng := rand.New(rand.NewSource(31))
			ext := testExt()
			p := solverParams(gated, ext.N())
			if gated.Caps.NeedsExtended {
				ext.Allowed = p.Allowed
			}
			release = make(chan struct{})
			checkOneAnswer(t, spec, gated, ext, p, rng, started, release)
			for trial := 0; trial < 6; trial++ {
				raw := make([]byte, 3*(2+rng.Intn(7)))
				rng.Read(raw)
				in, _, p := replayCase(gated, uint8(rng.Intn(256)), uint8(rng.Intn(256)), raw, 0)
				release = make(chan struct{})
				checkOneAnswer(t, spec, gated, in, p, rng, started, release)
			}
		})
	}
}

// checkOneAnswer runs TestFlightOneAnswerPerKey's five requests for in
// through gated, which parks on release after signalling started.
func checkOneAnswer(t *testing.T, spec, gated engine.Spec, in *instance.Extended, p engine.Params, rng *rand.Rand, started, release chan struct{}) {
	t.Helper()
	ctx := context.Background()
	var reqs [5]*instance.Extended
	for i := range reqs {
		if in.Allowed != nil {
			reqs[i] = extOf(in.Instance.Clone())
			reqs[i].Allowed = in.Allowed
		} else {
			reqs[i] = extOf(relabel(&in.Instance, rng.Perm(in.N())))
		}
	}
	type answer struct {
		sol instance.Solution
		st  Stats
		err error
	}
	var got [5]answer
	ask := func(c *Cache, i int, peer string) answer {
		sol, st, err := solve(c, ctx, gated.Name, reqs[i], p, peer)
		return answer{sol, st, err}
	}

	select {
	case <-started: // a signal left by the previous case's cache-off solve
	default:
	}
	sink := obs.New()
	a := New(Config{Obs: sink})
	first, second := make(chan answer, 1), make(chan answer, 1)
	go func() { first <- ask(a, 0, "") }()
	<-started
	go func() { second <- ask(a, 1, "") }()
	for deadline := time.Now().Add(2 * time.Second); sink.Reg.Counter("cache.coalesced").Value() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("the waiter did not coalesce onto the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	got[0], got[1] = <-first, <-second
	got[2] = ask(a, 2, "")
	b := New(Config{Fill: func(_ context.Context, _, solver string, ext *instance.Extended, p engine.Params) (instance.Solution, bool) {
		sol, ok, err := a.TryGet(Canonicalize(solver, gated.Caps, ext, p), &ext.Instance, solver, nil)
		return sol, ok && err == nil
	}})
	got[3] = ask(b, 3, "http://a.example")
	got[4] = ask(New(Config{MaxEntries: -1}), 4, "")

	routes := [5]string{"initiator", "waiter", "hit", "peer fill", "cache off"}
	defer func() {
		for i, want := range []Outcome{Miss, Coalesced, Hit, Miss, 0} {
			if got[i].st.Outcome != want {
				t.Fatalf("%s: outcome %v, want %v", routes[i], got[i].st.Outcome, want)
			}
		}
	}()
	if got[0].err != nil {
		for i, g := range got {
			if !errors.Is(g.err, instance.ErrInfeasible) {
				t.Fatalf("%s: error %v (initiator: %v)", routes[i], g.err, got[0].err)
			}
		}
		return
	}
	if got[3].st.PeerFill != "hit" {
		t.Fatalf("peer fill: %q, want a peer hit", got[3].st.PeerFill)
	}
	if ref := canonicalReference(t, spec, reqs[0], p); !reflect.DeepEqual(got[0].sol, ref) {
		t.Fatalf("initiator %+v != canonical reference %+v", got[0].sol, ref)
	}
	want := placements(&reqs[0].Instance, got[0].sol.Assign)
	for i, g := range got {
		if g.err != nil {
			t.Fatalf("%s: %v", routes[i], g.err)
		}
		if g.sol.Makespan != got[0].sol.Makespan || g.sol.Moves != got[0].sol.Moves || g.sol.MoveCost != got[0].sol.MoveCost {
			t.Fatalf("%s answers (%d, %d, %d), initiator (%d, %d, %d)", routes[i],
				g.sol.Makespan, g.sol.Moves, g.sol.MoveCost, got[0].sol.Makespan, got[0].sol.Moves, got[0].sol.MoveCost)
		}
		if pl := placements(&reqs[i].Instance, g.sol.Assign); !slices.Equal(pl, want) {
			t.Fatalf("%s places %v, initiator %v", routes[i], pl, want)
		}
	}
}

// TestPermutedRequestHits pins the tentpole property end to end: a
// permuted-but-identical instance is served from the cache, and the
// re-indexed solution verifies against the permuted labeling.
func TestPermutedRequestHits(t *testing.T) {
	c := New(Config{})
	in := instance.MustNew(2, []int64{9, 6, 5, 3}, nil, []int{0, 0, 0, 1})
	p := engine.Params{K: 2, Workers: 1}
	if _, out, err := solveOutcome(c, context.Background(), "greedy", extOf(in), p); err != nil || out != Miss {
		t.Fatalf("seed solve: outcome %v, err %v", out, err)
	}
	perm := instance.MustNew(2, []int64{3, 5, 9, 6}, nil, []int{1, 0, 0, 0})
	sol, out, err := solveOutcome(c, context.Background(), "greedy", extOf(perm), p)
	if err != nil || out != Hit {
		t.Fatalf("permuted solve: outcome %v, err %v", out, err)
	}
	direct, err := engine.Solve(context.Background(), "greedy", perm, p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Makespan != direct.Makespan {
		t.Errorf("permuted hit makespan %d, direct solve %d", sol.Makespan, direct.Makespan)
	}
	if got := perm.Makespan(sol.Assign); got != sol.Makespan {
		t.Errorf("re-indexed assignment scores %d under the permuted labeling, claims %d", got, sol.Makespan)
	}
	if got := perm.MoveCount(sol.Assign); got > p.K {
		t.Errorf("re-indexed assignment makes %d moves, budget k=%d", got, p.K)
	}
}

// TestSingleFlightCoalesce floods one key with concurrent identical
// requests (run under -race in CI) and asserts exactly one engine
// invocation with every caller sharing its result.
func TestSingleFlightCoalesce(t *testing.T) {
	const callers = 16
	var calls atomic.Int64
	started := make(chan struct{}, callers)
	release := make(chan struct{})
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-gate", Summary: "counts invocations, parks until released", Guarantee: "-",
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
	c := New(Config{Obs: sink})
	ext := testExt()
	p := engine.Params{Workers: 1}

	outcomes := make([]Outcome, callers)
	sols := make([]instance.Solution, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sols[i], outcomes[i], errs[i] = solveOutcome(c, context.Background(), "cachetest-gate", ext, p)
		}(i)
	}
	<-started // one flight is running
	// Give stragglers a moment to attach to the flight, then release.
	deadline := time.After(2 * time.Second)
	for sink.Reg.Counter("cache.coalesced").Value() < callers-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d callers coalesced", sink.Reg.Counter("cache.coalesced").Value())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d engine invocations for %d identical requests, want 1", got, callers)
	}
	var miss, coalesced int
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		switch outcomes[i] {
		case Miss:
			miss++
		case Coalesced:
			coalesced++
		default:
			t.Fatalf("caller %d: outcome %v", i, outcomes[i])
		}
		if sols[i].Makespan != sols[0].Makespan {
			t.Fatalf("caller %d got a different solution", i)
		}
	}
	if miss != 1 || coalesced != callers-1 {
		t.Fatalf("%d miss + %d coalesced, want 1 + %d", miss, coalesced, callers-1)
	}
	if sink.Reg.Counter("cache.misses.cachetest-gate").Value() != 1 {
		t.Error("per-solver miss counter != 1")
	}
	// The flight's result landed in the LRU: one more call is a hit.
	if _, out, err := solveOutcome(c, context.Background(), "cachetest-gate", ext, p); err != nil || out != Hit {
		t.Fatalf("post-flight solve: outcome %v, err %v", out, err)
	}
}

// TestWaiterCancelDoesNotPoisonFlight cancels one coalesced waiter
// mid-flight: the waiter returns its ctx error promptly, the flight
// completes for the surviving callers, and the cache entry lands.
func TestWaiterCancelDoesNotPoisonFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-waiter", Summary: "parks until released", Guarantee: "-",
		Run: func(ctx context.Context, in *instance.Instance, _ engine.Params) (instance.Solution, error) {
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
	c := New(Config{Obs: sink})
	ext := testExt()
	p := engine.Params{Workers: 1}

	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := solveOutcome(c, context.Background(), "cachetest-waiter", ext, p)
		ownerDone <- err
	}()
	<-started

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, out, err := solveOutcome(c, waiterCtx, "cachetest-waiter", ext, p)
		if out != Coalesced {
			err = errors.New("waiter was not coalesced")
		}
		waiterDone <- err
	}()
	for sink.Reg.Counter("cache.coalesced").Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancelWaiter()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	select {
	case err := <-ownerDone:
		t.Fatalf("flight died with the waiter: %v", err)
	default:
	}
	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner: %v", err)
	}
	if _, out, err := solveOutcome(c, context.Background(), "cachetest-waiter", ext, p); err != nil || out != Hit {
		t.Fatalf("flight result not cached: outcome %v, err %v", out, err)
	}
}

// TestPanicDoesNotPoisonFlight: a solver panic mid-flight must finalize
// the flight — owner and coalesced waiters both get an error instead of
// hanging on a done channel that never closes, the key is removed from
// the flights map so the next identical request starts fresh, and the
// panic is never cached.
func TestPanicDoesNotPoisonFlight(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 8)
	boom := make(chan struct{})
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-panic", Summary: "panics on first call, then succeeds", Guarantee: "-",
		Run: func(_ context.Context, in *instance.Instance, _ engine.Params) (instance.Solution, error) {
			if calls.Add(1) == 1 {
				started <- struct{}{}
				<-boom
				panic("solver bug")
			}
			return instance.NewSolution(in, in.Assign), nil
		},
	})
	sink := obs.New()
	c := New(Config{Obs: sink})
	ext := testExt()
	p := engine.Params{Workers: 1}

	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := solveOutcome(c, context.Background(), "cachetest-panic", ext, p)
		ownerDone <- err
	}()
	<-started
	waiterDone := make(chan error, 1)
	go func() {
		_, out, err := solveOutcome(c, context.Background(), "cachetest-panic", ext, p)
		if err == nil {
			err = errors.New("waiter got a result from a panicked flight")
		} else if out != Coalesced {
			err = errors.New("waiter was not coalesced")
		}
		waiterDone <- err
	}()
	for sink.Reg.Counter("cache.coalesced").Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(boom)
	for _, ch := range []chan error{ownerDone, waiterDone} {
		select {
		case err := <-ch:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("party returned %v, want a solver-panicked error", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a party hung on the panicked flight")
		}
	}
	// The flight is gone and the error was not cached: the next identical
	// request must re-run the engine (which now succeeds) as a fresh miss.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, out, err := solveOutcome(c, context.Background(), "cachetest-panic", ext, p); err != nil || out != Miss {
			t.Errorf("post-panic solve: outcome %v, err %v; want fresh Miss", out, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("request after a panicked flight hung: flight leaked in the map")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("engine ran %d times, want 2 (panicked flight + fresh miss)", got)
	}
}

// TestWaiterOutlivesInitiatorDeadline pins the flight-lifetime
// contract: the flight lives while any party waits, so the initiator's
// earlier deadline expiring returns 504 to the initiator only — an
// attached waiter with more time still gets the real result from the
// same single engine invocation.
func TestWaiterOutlivesInitiatorDeadline(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	var calls atomic.Int64
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-outlive", Summary: "parks until released", Guarantee: "-",
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
	c := New(Config{Obs: sink})
	ext := testExt()
	p := engine.Params{Workers: 1}

	// The deadline must outlast the waiter's attach below (spin-waited,
	// normally single-digit ms) but expire while the solver is parked.
	ownerCtx, cancelOwner := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancelOwner()
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := solveOutcome(c, ownerCtx, "cachetest-outlive", ext, p)
		ownerDone <- err
	}()
	<-started

	type res struct {
		sol instance.Solution
		out Outcome
		err error
	}
	waiterDone := make(chan res, 1)
	go func() {
		sol, out, err := solveOutcome(c, context.Background(), "cachetest-outlive", ext, p)
		waiterDone <- res{sol, out, err}
	}()
	attachBy := time.After(2 * time.Second)
	for sink.Reg.Counter("cache.coalesced").Value() < 1 {
		select {
		case <-attachBy:
			t.Fatal("waiter never coalesced onto the flight")
		case <-time.After(time.Millisecond):
		}
	}
	// The initiator's deadline fires while the waiter is attached: the
	// initiator gets DeadlineExceeded, the flight keeps running.
	if err := <-ownerDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("initiator returned %v, want DeadlineExceeded", err)
	}
	select {
	case r := <-waiterDone:
		t.Fatalf("flight died with the initiator's deadline: outcome %v, err %v", r.out, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case r := <-waiterDone:
		if r.err != nil || r.out != Coalesced {
			t.Fatalf("waiter: outcome %v, err %v; want Coalesced success", r.out, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never completed after release")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("engine ran %d times, want 1 (waiter shares the surviving flight)", got)
	}
	// The survivor's result was cached despite the initiator's timeout.
	if _, out, err := solveOutcome(c, context.Background(), "cachetest-outlive", ext, p); err != nil || out != Hit {
		t.Errorf("post-flight solve: outcome %v, err %v; want Hit", out, err)
	}
}

// TestAttachToDeadFlightStartsFresh pins the refs-0 race fix: a flight
// whose parties all detached stays in the map until its goroutine
// finalizes, and a request arriving in that window must NOT board it
// (it would inherit context.Canceled despite a live ctx) — it replaces
// the dead flight and solves fresh.
func TestAttachToDeadFlightStartsFresh(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 8)
	holdFinalize := make(chan struct{})
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-dead", Summary: "first call wedges its teardown", Guarantee: "-",
		Run: func(ctx context.Context, in *instance.Instance, _ engine.Params) (instance.Solution, error) {
			if calls.Add(1) == 1 {
				started <- struct{}{}
				<-ctx.Done()
				// Keep the cancelled flight in c.flights: its finalizer
				// cannot run until this returns.
				<-holdFinalize
				return instance.Solution{}, ctx.Err()
			}
			return instance.NewSolution(in, in.Assign), nil
		},
	})
	c := New(Config{})
	ext := testExt()
	p := engine.Params{Workers: 1}

	ctx, cancel := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := solveOutcome(c, ctx, "cachetest-dead", ext, p)
		ownerDone <- err
	}()
	<-started
	cancel()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning owner returned %v, want context.Canceled", err)
	}
	// The dead flight is still registered (its solver is wedged). A new
	// request with a live ctx must bypass it and solve fresh.
	sol, out, err := solveOutcome(c, context.Background(), "cachetest-dead", ext, p)
	if err != nil || out != Miss {
		t.Fatalf("request over a dead flight: outcome %v, err %v; want fresh Miss", out, err)
	}
	if len(sol.Assign) == 0 {
		t.Fatal("fresh solve returned an empty solution")
	}
	close(holdFinalize)
	// The dead flight's guarded delete must not have clobbered the fresh
	// result that is now in the LRU.
	if _, out, err := solveOutcome(c, context.Background(), "cachetest-dead", ext, p); err != nil || out != Hit {
		t.Fatalf("post-teardown solve: outcome %v, err %v; want Hit", out, err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("engine ran %d times, want 2 (dead flight + fresh miss)", got)
	}
}

// TestAllPartiesGoneCancelsFlight: when the only interested caller's
// ctx fires, the flight context is cancelled so the solve stops, and
// the error is not cached.
func TestAllPartiesGoneCancelsFlight(t *testing.T) {
	started := make(chan struct{}, 8)
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-abandon", Summary: "parks until its ctx fires", Guarantee: "-",
		Run: func(ctx context.Context, _ *instance.Instance, _ engine.Params) (instance.Solution, error) {
			started <- struct{}{}
			<-ctx.Done()
			return instance.Solution{}, ctx.Err()
		},
	})
	c := New(Config{})
	ext := testExt()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := solveOutcome(c, ctx, "cachetest-abandon", ext, engine.Params{})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned solve returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flight did not cancel after its last party detached")
	}
	if c.Len() != 0 {
		t.Error("cancellation error was cached")
	}
}

func TestLRUEviction(t *testing.T) {
	registerCountSolver(t)
	sink := obs.New()
	c := New(Config{MaxEntries: 2, Obs: sink})
	p := engine.Params{Workers: 1}
	mk := func(first int64) *instance.Extended {
		return extOf(instance.MustNew(2, []int64{first, 4, 3}, nil, []int{0, 0, 1}))
	}
	for _, s := range []int64{10, 11, 12} {
		if _, out, err := solveOutcome(c, context.Background(), "cachetest-count", mk(s), p); err != nil || out != Miss {
			t.Fatalf("size %d: outcome %v, err %v", s, out, err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, bound is 2", c.Len())
	}
	if got := sink.Reg.Counter("cache.evictions").Value(); got != 1 {
		t.Fatalf("eviction counter %d, want 1", got)
	}
	// The oldest (10) was evicted; the newer two still hit.
	if _, out, _ := solveOutcome(c, context.Background(), "cachetest-count", mk(11), p); out != Hit {
		t.Errorf("entry 11: outcome %v, want Hit", out)
	}
	if _, out, _ := solveOutcome(c, context.Background(), "cachetest-count", mk(12), p); out != Hit {
		t.Errorf("entry 12: outcome %v, want Hit", out)
	}
	if _, out, _ := solveOutcome(c, context.Background(), "cachetest-count", mk(10), p); out != Miss {
		t.Errorf("evicted entry 10: outcome %v, want Miss", out)
	}
}

// TestLRUTouchOnHit pins recency updates: touching the oldest entry
// saves it from the next eviction.
func TestLRUTouchOnHit(t *testing.T) {
	registerCountSolver(t)
	c := New(Config{MaxEntries: 2})
	p := engine.Params{Workers: 1}
	mk := func(first int64) *instance.Extended {
		return extOf(instance.MustNew(2, []int64{first, 4, 3}, nil, []int{0, 0, 1}))
	}
	solveOutcome(c, context.Background(), "cachetest-count", mk(20), p)
	solveOutcome(c, context.Background(), "cachetest-count", mk(21), p)
	solveOutcome(c, context.Background(), "cachetest-count", mk(20), p) // touch 20
	solveOutcome(c, context.Background(), "cachetest-count", mk(22), p) // evicts 21
	if _, out, _ := solveOutcome(c, context.Background(), "cachetest-count", mk(20), p); out != Hit {
		t.Errorf("touched entry 20 was evicted (outcome %v)", out)
	}
	if _, out, _ := solveOutcome(c, context.Background(), "cachetest-count", mk(21), p); out != Miss {
		t.Errorf("entry 21 survived past the bound (outcome %v)", out)
	}
}

// TestLRUEvictsByBytes fills a byte-bounded cache with 10^5-job
// solutions that move every job: each is charged the entry overhead
// plus two int32 per job, so the byte bound binds long before the entry
// bound, and cache.bytes tracks the sum of the charges. A solution
// charged more than the whole bound is served but never stored.
func TestLRUEvictsByBytes(t *testing.T) {
	const n = 100_000
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-moveall", Summary: "moves every job one processor on", Guarantee: "-",
		Run: func(_ context.Context, in *instance.Instance, _ engine.Params) (instance.Solution, error) {
			assign := make([]int, in.N())
			for j, p := range in.Assign {
				assign[j] = (p + 1) % in.M
			}
			return instance.NewSolution(in, assign), nil
		},
	})
	mk := func(first int64) *instance.Extended {
		sizes := make([]int64, n)
		for j := range sizes {
			sizes[j] = 1 + int64(j%7)
		}
		sizes[0] = first
		return extOf(instance.MustNew(2, sizes, nil, make([]int, n)))
	}
	const charge = entryOverhead + 4*2*n
	sink := obs.New()
	c := New(Config{MaxBytes: 3*charge + charge/2, Obs: sink})
	p := engine.Params{Workers: 1}
	for s := int64(100); s < 105; s++ {
		sol, out, err := solveOutcome(c, context.Background(), "cachetest-moveall", mk(s), p)
		if err != nil || out != Miss || sol.Moves != n {
			t.Fatalf("size %d: outcome %v, %d moves, err %v", s, out, sol.Moves, err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, the byte bound fits 3", c.Len())
	}
	if got := sink.Reg.Counter("cache.evictions").Value(); got != 2 {
		t.Fatalf("eviction counter %d, want 2", got)
	}
	var sum int64
	c.mu.Lock()
	for el := c.entries.order.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*entry).charge()
	}
	c.mu.Unlock()
	if got := sink.Reg.Gauge("cache.bytes").Value(); got != sum || sum != 3*charge {
		t.Fatalf("cache.bytes %d, charges sum to %d, want %d", got, sum, 3*charge)
	}
	// The oldest two were evicted; the newest three still hit.
	if _, out, _ := solveOutcome(c, context.Background(), "cachetest-moveall", mk(101), p); out != Miss {
		t.Errorf("evicted entry 101: outcome %v, want Miss", out)
	}
	if _, out, _ := solveOutcome(c, context.Background(), "cachetest-moveall", mk(104), p); out != Hit {
		t.Errorf("entry 104: outcome %v, want Hit", out)
	}

	small := New(Config{MaxBytes: charge - 1, Obs: obs.New()})
	for i := 0; i < 2; i++ {
		sol, out, err := solveOutcome(small, context.Background(), "cachetest-moveall", mk(100), p)
		if err != nil || out != Miss || sol.Moves != n {
			t.Fatalf("oversized solve %d: outcome %v, %d moves, err %v; want a served Miss", i, out, sol.Moves, err)
		}
	}
	if small.Len() != 0 {
		t.Fatalf("an entry larger than the whole byte bound was stored")
	}
}

// TestInfeasibleCached: ErrInfeasible is a deterministic property of
// the instance, so it is cached like a success.
func TestInfeasibleCached(t *testing.T) {
	c := New(Config{})
	// k=0 with an imbalanced start: exact cannot move anything, but that
	// is feasible; instead use conflict with an over-full clique, which
	// is genuinely infeasible (3 mutually conflicting jobs, 2 machines).
	ext := extOf(instance.MustNew(2, []int64{3, 2, 1}, nil, []int{0, 0, 1}))
	ext.Conflicts = [][2]int{{0, 1}, {0, 2}, {1, 2}}
	p := engine.Params{Conflicts: ext.Conflicts}
	_, out, err := solveOutcome(c, context.Background(), "conflict", ext, p)
	if !errors.Is(err, instance.ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v (outcome %v)", err, out)
	}
	_, out, err = solveOutcome(c, context.Background(), "conflict", ext, p)
	if !errors.Is(err, instance.ErrInfeasible) || out != Hit {
		t.Fatalf("second call: outcome %v, err %v; want Hit + ErrInfeasible", out, err)
	}
}

// TestDeadlineErrorSurfaces: when the initiator's deadline ends its
// wait, the returned error is its own DeadlineExceeded (not the
// flight's internal Canceled), preserving the server's 504 mapping.
func TestDeadlineErrorSurfaces(t *testing.T) {
	c := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-deadline", Summary: "parks until its ctx fires", Guarantee: "-",
		Run: func(ctx context.Context, _ *instance.Instance, _ engine.Params) (instance.Solution, error) {
			<-ctx.Done()
			return instance.Solution{}, ctx.Err()
		},
	})
	_, _, err := solveOutcome(c, ctx, "cachetest-deadline", testExt(), engine.Params{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline expiry surfaced as %v, want DeadlineExceeded", err)
	}
	if c.Len() != 0 {
		t.Error("deadline error was cached")
	}
}

// TestSolveUsesHandedKey pins that Solve never keys a request itself:
// the handed key is used as is. Solving request a under
// request b's key stores a's solution where b's lookups find it, which
// a recomputed key would not. (b is already sorted, so its key carries
// the identity order, which fits a's six jobs too.)
func TestSolveUsesHandedKey(t *testing.T) {
	c := New(Config{})
	spec, _ := engine.Lookup("greedy")
	p := engine.Params{K: 1}
	a := testExt()
	b := extOf(instance.MustNew(2, []int64{1, 2, 3, 4, 5, 6}, nil, []int{0, 0, 0, 0, 0, 0}))
	bKey := Canonicalize("greedy", spec.Caps, b, p)
	if _, st, err := c.Solve(context.Background(), spec, a, p, "", bKey); err != nil || st.Outcome != Miss {
		t.Fatalf("first solve: outcome %v, err %v (want a miss)", st.Outcome, err)
	}
	if _, hit, _ := c.TryGet(Canonicalize("greedy", spec.Caps, a, p), &a.Instance, "greedy", nil); hit {
		t.Fatal("the solve was stored under a key Solve computed, not the handed one")
	}
	if _, hit, _ := c.TryGet(bKey, &b.Instance, "greedy", nil); !hit {
		t.Fatal("the solve was not stored under the handed key")
	}
}

// TestFlightReportsInitiatorDeadline pins that a flight's engine call
// sees the deadline of the request that started it, so solvers that
// size their search rails by it behave as they do uncached, and sees
// none when that request had none.
func TestFlightReportsInitiatorDeadline(t *testing.T) {
	type seen struct {
		d  time.Time
		ok bool
	}
	got := make(chan seen, 2)
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-deadline-seen", Summary: "reports its context's deadline", Guarantee: "-",
		Run: func(ctx context.Context, in *instance.Instance, _ engine.Params) (instance.Solution, error) {
			d, ok := ctx.Deadline()
			got <- seen{d, ok}
			return instance.NewSolution(in, in.Assign), nil
		},
	})
	c := New(Config{})
	want := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if _, _, err := solveOutcome(c, ctx, "cachetest-deadline-seen", testExt(), engine.Params{}); err != nil {
		t.Fatal(err)
	}
	if s := <-got; !s.ok || !s.d.Equal(want) {
		t.Errorf("flight saw deadline %v (ok %v), want %v", s.d, s.ok, want)
	}
	// A fresh cache, so the same request misses again.
	if _, _, err := solveOutcome(New(Config{}), context.Background(), "cachetest-deadline-seen", testExt(), engine.Params{}); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s.ok {
		t.Errorf("flight of a deadline-free request saw deadline %v", s.d)
	}
}
