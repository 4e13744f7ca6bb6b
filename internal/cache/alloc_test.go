package cache

// Allocation and equivalence guards for the pooled canonicalization
// scratch and the move-list replay: CanonScratch must produce
// byte-identical keys and identical orders to the allocating
// Canonicalize, and with warmed buffers neither it nor applyMoves may
// touch the heap.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/instance"
)

func TestCanonScratchMatchesCanonicalize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec, _ := engine.Lookup("greedy")
	var sc CanonScratch
	for trial := 0; trial < 80; trial++ {
		n := rng.Intn(12)
		m := 1 + rng.Intn(4)
		sizes := make([]int64, n)
		costs := make([]int64, n)
		assign := make([]int, n)
		for j := range sizes {
			sizes[j] = 1 + rng.Int63n(20)
			costs[j] = rng.Int63n(5)
			assign[j] = rng.Intn(m)
		}
		var ext instance.Extended
		if n > 0 {
			ext.Instance = *instance.MustNew(m, sizes, costs, assign)
		} else {
			ext.Instance = instance.Instance{M: m}
		}
		p := engine.Params{K: rng.Intn(n + 2)}
		want := Canonicalize("greedy", spec.Caps, &ext, p)
		got := sc.Canonicalize("greedy", spec.Caps, &ext, p)
		if got.Key != want.Key {
			t.Fatalf("trial %d: scratch key differs from Canonicalize", trial)
		}
		if (got.order == nil) != (want.order == nil) || !slices.Equal(got.order, want.order) {
			t.Fatalf("trial %d: order differs: %v vs %v", trial, got.order, want.order)
		}
	}
}

func TestCanonScratchZeroAllocs(t *testing.T) {
	spec, _ := engine.Lookup("greedy")
	var ext instance.Extended
	ext.Instance = *instance.MustNew(3,
		[]int64{9, 7, 5, 4, 3, 2}, []int64{1, 0, 2, 0, 1, 0},
		[]int{2, 0, 0, 1, 1, 0})
	p := engine.Params{K: 2}
	var sc CanonScratch
	sc.Canonicalize("greedy", spec.Caps, &ext, p) // warm the buffers
	if n := testing.AllocsPerRun(100, func() {
		sc.Canonicalize("greedy", spec.Caps, &ext, p)
	}); n != 0 {
		t.Fatalf("CanonScratch.Canonicalize allocates %.1f/op, want 0", n)
	}
}

// TestApplyMovesMatchesReindex checks the move-list replay against the
// full-assignment re-index it replaces, into destination buffers of
// every capacity: encoding a solution on one request and applying it
// on a permuted twin places every twin job where the reference does.
func TestApplyMovesMatchesReindex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spec, _ := engine.Lookup("greedy")
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(4)
		sizes := make([]int64, n)
		assign := make([]int, n)
		for j := range sizes {
			sizes[j] = 1 + rng.Int63n(20)
			assign[j] = rng.Intn(m)
		}
		in := instance.MustNew(m, sizes, nil, assign)
		twin, _ := shuffled(in, rng)
		rel := &Canonicalize("greedy", spec.Caps, extOf(in), engine.Params{K: 1}).relabel(extOf(in)).Instance
		canTwin := Canonicalize("greedy", spec.Caps, extOf(twin), engine.Params{K: 1})
		sol := instance.NewSolution(rel, randomAssign(rel, rng))
		moves := encodeMoves(rel, sol)
		if len(moves) != 2*sol.Moves {
			t.Fatalf("trial %d: encodeMoves gave %d ints for %d moves", trial, len(moves), sol.Moves)
		}
		want := reindex(Canonical{}, canTwin, sol.Assign)
		dst := make([]int, rng.Intn(2*n)) // any capacity must work
		if got := canTwin.applyMoves(dst, twin, moves); !slices.Equal(got, want) {
			t.Fatalf("trial %d: replay %v, reference %v", trial, got, want)
		}
	}
}

func TestApplyMovesZeroAllocs(t *testing.T) {
	spec, _ := engine.Lookup("greedy")
	in := instance.MustNew(2, []int64{5, 4, 3}, nil, []int{1, 0, 0})
	can := Canonicalize("greedy", spec.Caps, extOf(in), engine.Params{K: 1})
	rel := &can.relabel(extOf(in)).Instance
	moves := encodeMoves(rel, instance.NewSolution(rel, []int{0, 1, 0}))
	dst := make([]int, 3)
	if n := testing.AllocsPerRun(100, func() {
		can.applyMoves(dst, in, moves)
	}); n != 0 {
		t.Fatalf("applyMoves allocates %.1f/op, want 0", n)
	}
}
