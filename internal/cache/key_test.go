package cache

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/workload"
)

func extOf(in *instance.Instance) *instance.Extended {
	var ext instance.Extended
	ext.Instance = *in
	return &ext
}

// shuffled returns the same instance with its jobs relabeled by a
// random permutation: the identical multiset of (size, cost, assign)
// triples in a different order.
func shuffled(in *instance.Instance, rng *rand.Rand) (*instance.Instance, []int) {
	n := in.N()
	perm := rng.Perm(n) // out[i] gets original job perm[i]
	out := &instance.Instance{M: in.M, Jobs: make([]instance.Job, n), Assign: make([]int, n)}
	for i, j := range perm {
		out.Jobs[i] = instance.Job{ID: i, Size: in.Jobs[j].Size, Cost: in.Jobs[j].Cost}
		out.Assign[i] = in.Assign[j]
	}
	return out, perm
}

func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec, _ := engine.Lookup("greedy")
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		sizes := make([]int64, n)
		costs := make([]int64, n)
		assign := make([]int, n)
		for j := range sizes {
			sizes[j] = 1 + rng.Int63n(20)
			costs[j] = rng.Int63n(5)
			assign[j] = rng.Intn(m)
		}
		in := instance.MustNew(m, sizes, costs, assign)
		p := engine.Params{K: rng.Intn(n + 1)}
		base := Canonicalize("greedy", spec.Caps, extOf(in), p)
		for i := 0; i < 3; i++ {
			sh, _ := shuffled(in, rng)
			got := Canonicalize("greedy", spec.Caps, extOf(sh), p)
			if got.Key != base.Key {
				t.Fatalf("trial %d: permuted instance hashed differently\noriginal: %+v\nshuffled: %+v", trial, in, sh)
			}
		}
	}
}

func TestKeyDistinguishesRequests(t *testing.T) {
	in := instance.MustNew(2, []int64{5, 4, 3}, nil, []int{0, 0, 1})
	greedy, _ := engine.Lookup("greedy")
	budget, _ := engine.Lookup("budget")

	base := Canonicalize("greedy", greedy.Caps, extOf(in), engine.Params{K: 1})
	distinct := map[string]Canonical{
		"different k":      Canonicalize("greedy", greedy.Caps, extOf(in), engine.Params{K: 2}),
		"different solver": Canonicalize("budget", budget.Caps, extOf(in), engine.Params{Budget: 1}),
		"different m": Canonicalize("greedy", greedy.Caps,
			extOf(instance.MustNew(3, []int64{5, 4, 3}, nil, []int{0, 0, 1})), engine.Params{K: 1}),
		"different size": Canonicalize("greedy", greedy.Caps,
			extOf(instance.MustNew(2, []int64{5, 4, 2}, nil, []int{0, 0, 1})), engine.Params{K: 1}),
		"different cost": Canonicalize("greedy", greedy.Caps,
			extOf(instance.MustNew(2, []int64{5, 4, 3}, []int64{1, 1, 7}, []int{0, 0, 1})), engine.Params{K: 1}),
		"different assign": Canonicalize("greedy", greedy.Caps,
			extOf(instance.MustNew(2, []int64{5, 4, 3}, nil, []int{0, 1, 1})), engine.Params{K: 1}),
	}
	for name, c := range distinct {
		if c.Key == base.Key {
			t.Errorf("%s: collided with the base key", name)
		}
	}
}

// TestCapsMaskParams pins that only capability-relevant parameters
// enter the key: greedy ignores Budget/Eps, and Workers never counts.
func TestCapsMaskParams(t *testing.T) {
	in := instance.MustNew(2, []int64{5, 4, 3}, nil, []int{0, 0, 1})
	spec, _ := engine.Lookup("greedy")
	base := Canonicalize("greedy", spec.Caps, extOf(in), engine.Params{K: 1})
	same := Canonicalize("greedy", spec.Caps, extOf(in),
		engine.Params{K: 1, Budget: 99, Eps: 0.5, Workers: 8})
	if same.Key != base.Key {
		t.Error("parameters outside greedy's capability set changed the key")
	}
	ptas, _ := engine.Lookup("ptas")
	b1 := Canonicalize("ptas", ptas.Caps, extOf(in), engine.Params{Budget: 5, Eps: 0.2, Workers: 1})
	b2 := Canonicalize("ptas", ptas.Caps, extOf(in), engine.Params{Budget: 5, Eps: 0.2, Workers: 16})
	if b1.Key != b2.Key {
		t.Error("Workers entered the key; results are worker-count invariant by contract")
	}
	b3 := Canonicalize("ptas", ptas.Caps, extOf(in), engine.Params{Budget: 5, Eps: 0.3})
	if b3.Key == b1.Key {
		t.Error("Eps is capability-relevant for ptas but did not change the key")
	}
}

// TestZeroParamDistinctFromAbsent guards the mask byte: "K consumed and
// zero" must hash differently from a hypothetical encoding where K is
// simply absent (here: greedy K=0 vs lpt, same instance bytes).
func TestZeroParamDistinctFromAbsent(t *testing.T) {
	in := instance.MustNew(2, []int64{5, 4, 3}, nil, []int{0, 0, 1})
	greedy, _ := engine.Lookup("greedy")
	a := Canonicalize("greedy", greedy.Caps, extOf(in), engine.Params{K: 0})
	b := Canonicalize("greedy", engine.Caps{}, extOf(in), engine.Params{})
	if a.Key == b.Key {
		t.Error("K-consumed-but-zero collided with K-not-consumed")
	}
}

func TestExtendedInstanceHashing(t *testing.T) {
	in := instance.MustNew(2, []int64{5, 5, 3}, nil, []int{0, 0, 1})
	spec, _ := engine.Lookup("constrained")

	mk := func(allowed [][]int, conflicts [][2]int) Canonical {
		ext := extOf(in)
		ext.Allowed = allowed
		ext.Conflicts = conflicts
		return Canonicalize("constrained", spec.Caps, ext, engine.Params{K: 1})
	}
	plain := Canonicalize("constrained", spec.Caps, extOf(in), engine.Params{K: 1})
	a := mk([][]int{{0, 1}, nil, {1}}, nil)
	if a.Key == plain.Key {
		t.Error("allowed sets did not enter the key")
	}
	if !a.identity() {
		t.Error("extended instance must use the identity permutation")
	}
	// Allowed sets are unordered: {1,0} ≡ {0,1}.
	if b := mk([][]int{{1, 0}, nil, {1}}, nil); b.Key != a.Key {
		t.Error("allowed-set member order changed the key")
	}
	if c := mk([][]int{{0}, nil, {1}}, nil); c.Key == a.Key {
		t.Error("different allowed sets collided")
	}
	// Conflict pairs are unordered within the pair and across the list.
	c1 := mk(nil, [][2]int{{0, 1}, {1, 2}})
	c2 := mk(nil, [][2]int{{2, 1}, {1, 0}})
	if c1.Key != c2.Key {
		t.Error("conflict pair order changed the key")
	}
	if c3 := mk(nil, [][2]int{{0, 2}}); c3.Key == c1.Key {
		t.Error("different conflict lists collided")
	}
}

// identity reports whether the canonical order is the request's own.
func (c Canonical) identity() bool { return c.order == nil }

// TestSolutionRoundTrip checks that encodeMoves/applyMoves invert each
// other: a solution of the request's canonical relabeling, encoded and
// replayed onto the request, puts each job where the relabeling's
// solution put its slot, and a differently-permuted request of the same
// instance recovers a solution with identical metrics.
func TestSolutionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec, _ := engine.Lookup("greedy")
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(3)
		sizes := make([]int64, n)
		assign := make([]int, n)
		for j := range sizes {
			sizes[j] = 1 + rng.Int63n(9)
			assign[j] = rng.Intn(m)
		}
		in := instance.MustNew(m, sizes, nil, assign)
		can := Canonicalize("greedy", spec.Caps, extOf(in), engine.Params{K: n})
		rel := &can.relabel(extOf(in)).Instance
		if err := rel.Validate(); err != nil {
			t.Fatalf("trial %d: relabeling does not validate: %v", trial, err)
		}

		sol := instance.NewSolution(rel, randomAssign(rel, rng))
		moves := encodeMoves(rel, sol)
		got := can.applyMoves(nil, in, moves)
		for slot, p := range sol.Assign {
			if j := can.job(slot); got[j] != p {
				t.Fatalf("trial %d: round trip put job %d (slot %d) on %d, want %d", trial, j, slot, got[j], p)
			}
		}

		// A permuted twin shares the key; its replay of the stored moves
		// must score identically under its own labeling.
		sh, perm := shuffled(in, rng)
		can2 := Canonicalize("greedy", spec.Caps, extOf(sh), engine.Params{K: n})
		if can2.Key != can.Key {
			t.Fatalf("trial %d: permuted twin hashed differently", trial)
		}
		twin := can2.applyMoves(nil, sh, moves)
		if ms := sh.Makespan(twin); ms != sol.Makespan {
			t.Fatalf("trial %d: twin makespan %d, want %d (perm %v)", trial, ms, sol.Makespan, perm)
		}
		if mv, mc := sh.MoveCount(twin), sh.MoveCost(twin); mv != sol.Moves || mc != sol.MoveCost {
			t.Fatalf("trial %d: twin moves (%d, cost %d), want (%d, cost %d)", trial, mv, mc, sol.Moves, sol.MoveCost)
		}
	}
}

func randomAssign(in *instance.Instance, rng *rand.Rand) []int {
	a := make([]int, in.N())
	for j := range a {
		a[j] = rng.Intn(in.M)
	}
	return a
}

// TestCanonicalOrderMatchesStableSort pins the canonical job order, and
// with it every cache key, to a stable sort by (size, cost, initial
// processor) in request order. The workload instances are tie-heavy
// (sizes and costs drawn from [1, 50], up to 2000 jobs on few
// processors), so the index tie-break decides most positions; the
// hand-built ones cover the radix sort's edges: values that need every
// byte, more than 256 processors, tiny and degenerate job lists, and
// negative values (which no valid instance has, but the order still
// defines).
func TestCanonicalOrderMatchesStableSort(t *testing.T) {
	for trial := 0; trial < 48; trial++ {
		in := workload.Generate(workload.Config{
			N:         1 + trial*2000/47,
			M:         1 + trial%6,
			MaxSize:   50,
			Sizes:     workload.SizeDist(trial % 4),
			Placement: workload.Placement(trial % 4),
			Costs:     workload.CostModel(trial % 4),
			Seed:      uint64(trial),
		})
		checkCanonicalOrder(t, fmt.Sprintf("workload trial %d (n=%d)", trial, in.N()), in)
	}

	rng := rand.New(rand.NewSource(11))
	const near62 = int64(1) << 62
	random := func(n, m int, size, cost func() int64) *instance.Instance {
		in := &instance.Instance{M: m, Jobs: make([]instance.Job, n), Assign: make([]int, n)}
		for j := range in.Jobs {
			in.Jobs[j] = instance.Job{ID: j, Size: size(), Cost: cost()}
			in.Assign[j] = rng.Intn(m)
		}
		return in
	}
	small := func(hi int64) func() int64 { return func() int64 { return 1 + rng.Int63n(hi) } }
	wide := func() int64 { return 1 + rng.Int63() }
	// Few distinct values near 2^62 that still differ in low and high
	// bytes, so ties and multi-byte passes mix.
	nearTop := func() int64 { return near62 - int64(rng.Intn(4))<<(8*rng.Intn(8)) }
	zero := func() int64 { return 0 }
	cases := map[string]*instance.Instance{
		"n=0":                     {M: 3},
		"n=1":                     random(1, 3, small(9), small(9)),
		"n=2 sorted":              instance.MustNew(2, []int64{1, 2}, nil, []int{1, 0}),
		"n=2 swapped":             instance.MustNew(2, []int64{2, 1}, nil, []int{1, 0}),
		"n=2 processor tie-break": instance.MustNew(2, []int64{5, 5}, []int64{3, 3}, []int{1, 0}),
		"all equal":               random(500, 1, func() int64 { return 7 }, func() int64 { return 2 }),
		"multi-byte sizes":        random(1500, 7, wide, small(50)),
		"multi-byte costs":        random(1500, 7, small(5), wide),
		"multi-byte both":         random(1500, 7, small(1<<40), small(1<<40)),
		"costs at 0":              random(800, 5, small(300), zero),
		"near 2^62":               random(1200, 9, nearTop, nearTop),
		"cost 0 and near 2^62": random(1200, 9, small(30), func() int64 {
			if rng.Intn(2) == 0 {
				return 0
			}
			return nearTop()
		}),
		"m=300":   random(1500, 300, small(20), small(3)),
		"m=70000": random(1500, 70000, small(4), zero),
		"negative values": func() *instance.Instance {
			in := random(600, 600, small(40), small(40))
			for j := range in.Jobs {
				in.Jobs[j].Size -= 20
				in.Jobs[j].Cost -= 20
				in.Assign[j] -= 300
			}
			return in
		}(),
	}
	reversed := random(1000, 4, small(100), small(5))
	slices.SortStableFunc(reversed.Jobs, func(a, b instance.Job) int { return cmp.Compare(b.Size, a.Size) })
	cases["reverse sorted"] = reversed
	for name, in := range cases {
		checkCanonicalOrder(t, name, in)
	}
}

// checkCanonicalOrder compares canonicalOrder and both canonicalizers'
// keys against a stable sort by (size, cost, initial processor).
func checkCanonicalOrder(t *testing.T, name string, in *instance.Instance) {
	t.Helper()
	spec, _ := engine.Lookup("mpartition")
	p := engine.Params{K: 7}
	want := make([]int, in.N())
	for j := range want {
		want[j] = j
	}
	sort.SliceStable(want, func(a, b int) bool {
		ja, jb := in.Jobs[want[a]], in.Jobs[want[b]]
		if ja.Size != jb.Size {
			return ja.Size < jb.Size
		}
		if ja.Cost != jb.Cost {
			return ja.Cost < jb.Cost
		}
		return in.Assign[want[a]] < in.Assign[want[b]]
	})
	got := new(CanonScratch).canonicalOrder(extOf(in))
	if got == nil {
		got = make([]int, in.N()) // already canonical: the identity
		for j := range got {
			got[j] = j
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: canonical order differs from the stable-sort reference", name)
	}
	wantKey := Key(sha256.Sum256(appendCanonical(nil, "mpartition", spec.Caps, extOf(in), p, want)))
	if k := Canonicalize("mpartition", spec.Caps, extOf(in), p).Key; k != wantKey {
		t.Fatalf("%s: Canonicalize key differs from the stable-sort reference", name)
	}
	var sc CanonScratch
	if k := sc.Canonicalize("mpartition", spec.Caps, extOf(in), p).Key; k != wantKey {
		t.Fatalf("%s: CanonScratch key differs from the stable-sort reference", name)
	}
}
