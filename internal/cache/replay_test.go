package cache

// Differential tests for the move-list form: every solution-kind
// solver's result, stored as moves and replayed onto a permuted twin,
// must equal the full-assignment re-index the move lists replaced.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/verify"
)

// reindex is the reference the replay is checked against: assign, on
// the job order from keys, re-indexed through canonical order onto the
// job order to keys, as the cache did when it stored full assignments.
func reindex(from, to Canonical, assign []int) []int {
	canon := make([]int, len(assign))
	for slot := range canon {
		canon[slot] = assign[from.job(slot)]
	}
	out := make([]int, len(assign))
	for slot, p := range canon {
		out[to.job(slot)] = p
	}
	return out
}

// replaySolvers returns the registered solution-kind solvers, the test
// doubles excluded.
func replaySolvers() []engine.Spec {
	var specs []engine.Spec
	for _, spec := range engine.Specs() {
		if spec.Kind == engine.KindSolution && !strings.HasPrefix(spec.Name, "cache") {
			specs = append(specs, spec)
		}
	}
	return specs
}

// replayCase builds a request for spec from fuzzInstance's generator
// (narrow values, at most eight jobs, so the exponential solvers stay
// fast) and its twin: the same request with its jobs permuted by the
// permutation seed picks. An extended request (allowed sets) is keyed
// in its own job order, so its twin is an identical copy.
func replayCase(spec engine.Spec, mRaw, kRaw uint8, raw []byte, seed int64) (in, twin *instance.Extended, p engine.Params) {
	if len(raw) > 24 {
		raw = raw[:24]
	}
	base := fuzzInstance(mRaw&0x7f, raw)
	n := base.N()
	p = engine.Params{Workers: 1}
	if spec.Caps.K {
		p.K = 1 + int(kRaw)%n
	}
	if spec.Caps.Budget {
		p.Budget = int64(kRaw % 40)
	}
	if spec.Caps.Eps {
		p.Eps = []float64{0.5, 1, 2}[kRaw%3]
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	in, twin = extOf(base), extOf(relabel(base, perm))
	if spec.Caps.NeedsExtended {
		p.Allowed = make([][]int, n)
		in.Allowed = p.Allowed
		twin = extOf(base.Clone())
		twin.Allowed = p.Allowed
	}
	return in, twin, p
}

// storedEntry returns the LRU entry under key without touching its
// recency.
func storedEntry(c *Cache, key Key) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries.byKey[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry), true
}

// checkReplay solves in through a fresh cache, then its twin, and
// checks the twin's hit against the reference re-index of the solver's
// own solution, the stored move count, and internal/verify.
func checkReplay(t *testing.T, spec engine.Spec, in, twin *instance.Extended, p engine.Params) {
	t.Helper()
	c := New(Config{})
	ctx := context.Background()
	sol, st, err := solve(c, ctx, spec.Name, in, p, "")
	if st.Outcome != Miss {
		t.Fatalf("%s: first solve outcome %v, want Miss", spec.Name, st.Outcome)
	}
	hit, st, hitErr := solve(c, ctx, spec.Name, twin, p, "")
	if st.Outcome != Hit {
		t.Fatalf("%s: twin outcome %v, want Hit", spec.Name, st.Outcome)
	}
	if err != nil {
		if !errors.Is(err, instance.ErrInfeasible) || !errors.Is(hitErr, instance.ErrInfeasible) {
			t.Fatalf("%s: solve error %v, twin error %v", spec.Name, err, hitErr)
		}
		return
	}
	if hitErr != nil {
		t.Fatalf("%s: twin error %v after a successful solve", spec.Name, hitErr)
	}
	canIn := Canonicalize(spec.Name, spec.Caps, in, p)
	canTwin := Canonicalize(spec.Name, spec.Caps, twin, p)
	if want := reindex(canIn, canTwin, sol.Assign); !slices.Equal(hit.Assign, want) {
		t.Fatalf("%s: replayed %v, reference re-index %v (original %v on %v)",
			spec.Name, hit.Assign, want, sol.Assign, in.Assign)
	}
	e, ok := storedEntry(c, canIn.Key)
	if !ok {
		t.Fatalf("%s: result not stored", spec.Name)
	}
	if e.sol.Moves != len(e.moves)/2 || e.sol.Moves != sol.Moves {
		t.Fatalf("%s: Moves %d (solver %d) but %d pairs stored", spec.Name, e.sol.Moves, sol.Moves, len(e.moves)/2)
	}
	tw := &twin.Instance
	rep, err := verify.Solution(tw, hit.Assign)
	if err != nil {
		t.Fatalf("%s: verify: %v", spec.Name, err)
	}
	if rep.Makespan != hit.Makespan || rep.Moves != hit.Moves || rep.MoveCost != hit.MoveCost {
		t.Fatalf("%s: replay claims (%d, %d, %d), verify recomputes (%d, %d, %d)", spec.Name,
			hit.Makespan, hit.Moves, hit.MoveCost, rep.Makespan, rep.Moves, rep.MoveCost)
	}
	if spec.Caps.K {
		if _, err := verify.WithinMoves(tw, hit.Assign, p.K); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
	if spec.Caps.Budget {
		if _, err := verify.WithinBudget(tw, hit.Assign, p.Budget); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
	if twin.Allowed != nil {
		if err := verify.AllowedSets(tw, hit.Assign, twin.Allowed); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
}

// TestMoveReplayMatchesReindex is the differential test over every
// registered solution-kind solver and random instances.
func TestMoveReplayMatchesReindex(t *testing.T) {
	for _, spec := range replaySolvers() {
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 40; trial++ {
				raw := make([]byte, 3*(1+rng.Intn(8)))
				rng.Read(raw)
				in, twin, p := replayCase(spec, uint8(rng.Intn(256)), uint8(rng.Intn(256)), raw, rng.Int63())
				checkReplay(t, spec, in, twin, p)
			}
		})
	}
}

// FuzzMoveReplay is TestMoveReplayMatchesReindex driven by the fuzzer:
// it picks the solver, the instance and the twin's permutation.
func FuzzMoveReplay(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(2), []byte{5, 1, 0, 9, 2, 1, 200, 0, 0}, int64(1))
	f.Add(uint8(1), uint8(2), uint8(7), []byte{90, 3, 1, 90, 3, 0, 90, 3, 1}, int64(2))
	f.Add(uint8(5), uint8(6), uint8(255), []byte{1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4}, int64(3))
	f.Fuzz(func(t *testing.T, solver, mRaw, kRaw uint8, raw []byte, seed int64) {
		specs := replaySolvers()
		spec := specs[int(solver)%len(specs)]
		in, twin, p := replayCase(spec, mRaw, kRaw, raw, seed)
		checkReplay(t, spec, in, twin, p)
	})
}

// TestMoveReplayCoalescedTwin: a permuted twin that joins an in-flight
// solve gets the flight's move list replayed onto its own job order.
func TestMoveReplayCoalescedTwin(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	engine.RegisterTest(t, engine.Spec{
		Name: "cachetest-gated-greedy", Summary: "greedy once released", Guarantee: "-",
		Caps: engine.Caps{K: true},
		Run: func(ctx context.Context, in *instance.Instance, p engine.Params) (instance.Solution, error) {
			started <- struct{}{}
			<-release
			return engine.Solve(ctx, "greedy", in, p)
		},
	})
	spec, _ := engine.Lookup("cachetest-gated-greedy")
	sink := obs.New()
	c := New(Config{Obs: sink})
	in := extOf(instance.MustNew(3, []int64{9, 9, 7, 5, 4, 4, 3, 2}, nil, []int{0, 0, 0, 0, 1, 1, 0, 2}))
	twin := extOf(relabel(&in.Instance, []int{7, 2, 5, 0, 3, 6, 1, 4}))
	p := engine.Params{K: 3, Workers: 1}

	type result struct {
		sol instance.Solution
		st  Stats
		err error
	}
	first := make(chan result, 1)
	go func() {
		sol, st, err := solve(c, context.Background(), spec.Name, in, p, "")
		first <- result{sol, st, err}
	}()
	<-started
	second := make(chan result, 1)
	go func() {
		sol, st, err := solve(c, context.Background(), spec.Name, twin, p, "")
		second <- result{sol, st, err}
	}()
	for deadline := time.Now().Add(2 * time.Second); sink.Reg.Counter("cache.coalesced").Value() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("the twin did not coalesce onto the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	a, b := <-first, <-second
	if a.err != nil || b.err != nil || a.st.Outcome != Miss || b.st.Outcome != Coalesced {
		t.Fatalf("outcomes %v/%v, errors %v/%v; want Miss and Coalesced", a.st.Outcome, b.st.Outcome, a.err, b.err)
	}
	canIn := Canonicalize(spec.Name, spec.Caps, in, p)
	canTwin := Canonicalize(spec.Name, spec.Caps, twin, p)
	if want := reindex(canIn, canTwin, a.sol.Assign); !slices.Equal(b.sol.Assign, want) {
		t.Fatalf("coalesced twin got %v, reference re-index %v", b.sol.Assign, want)
	}
	if a.sol.Moves == 0 {
		t.Fatal("the fixture moves nothing; the replay is not exercised")
	}
	rep, err := verify.WithinMoves(&twin.Instance, b.sol.Assign, p.K)
	if err != nil || rep.Makespan != b.sol.Makespan || rep.Moves != b.sol.Moves {
		t.Fatalf("coalesced twin fails verify: %+v vs %+v, %v", rep, b.sol, err)
	}
}
