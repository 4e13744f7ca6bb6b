package greedy

// The reference implementation below is the pre-flat slice-of-structs
// GREEDY, kept verbatim (minus observability) as the oracle the
// rewritten kernel is checked against: same removals, same placements,
// same tie-breaks, byte-for-byte identical assignments.

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/edgecases"
	"repro/internal/instance"
)

func refRebalance(in *instance.Instance, k int, order Order) instance.Solution {
	assign := append([]int(nil), in.Assign...)
	if k <= 0 || in.N() == 0 {
		return instance.NewSolution(in, assign)
	}
	byProc := instance.JobsOn(in.M, assign)
	for p := range byProc {
		jobs := byProc[p]
		sort.Slice(jobs, func(a, b int) bool {
			if in.Jobs[jobs[a]].Size != in.Jobs[jobs[b]].Size {
				return in.Jobs[jobs[a]].Size > in.Jobs[jobs[b]].Size
			}
			return jobs[a] < jobs[b]
		})
	}
	heads := make([]int, in.M)
	loads := in.Loads(assign)

	maxH := &refProcHeap{loads: loads, max: true}
	for p := 0; p < in.M; p++ {
		maxH.items = append(maxH.items, p)
	}
	heap.Init(maxH)
	var removed []int
	for r := 0; r < k; r++ {
		p := maxH.items[0]
		if heads[p] == len(byProc[p]) {
			break
		}
		j := byProc[p][heads[p]]
		heads[p]++
		loads[p] -= in.Jobs[j].Size
		heap.Fix(maxH, 0)
		removed = append(removed, j)
	}

	switch order {
	case OrderLargestFirst:
		sort.SliceStable(removed, func(a, b int) bool {
			return in.Jobs[removed[a]].Size > in.Jobs[removed[b]].Size
		})
	case OrderSmallestFirst:
		sort.SliceStable(removed, func(a, b int) bool {
			return in.Jobs[removed[a]].Size < in.Jobs[removed[b]].Size
		})
	}
	minH := &refProcHeap{loads: loads}
	for p := 0; p < in.M; p++ {
		minH.items = append(minH.items, p)
	}
	heap.Init(minH)
	for _, j := range removed {
		p := minH.items[0]
		assign[j] = p
		loads[p] += in.Jobs[j].Size
		heap.Fix(minH, 0)
	}
	return instance.NewSolution(in, assign)
}

type refProcHeap struct {
	items []int
	loads []int64
	max   bool
}

func (h *refProcHeap) Len() int { return len(h.items) }

func (h *refProcHeap) Less(a, b int) bool {
	la, lb := h.loads[h.items[a]], h.loads[h.items[b]]
	if la != lb {
		if h.max {
			return la > lb
		}
		return la < lb
	}
	return h.items[a] < h.items[b]
}

func (h *refProcHeap) Swap(a, b int) { h.items[a], h.items[b] = h.items[b], h.items[a] }

func (h *refProcHeap) Push(x any) { h.items = append(h.items, x.(int)) }

func (h *refProcHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

func assertSameSolution(t *testing.T, want, got instance.Solution) {
	t.Helper()
	if got.Makespan != want.Makespan || got.Moves != want.Moves || got.MoveCost != want.MoveCost {
		t.Fatalf("metrics differ: got (makespan=%d moves=%d cost=%d), want (%d %d %d)",
			got.Makespan, got.Moves, got.MoveCost, want.Makespan, want.Moves, want.MoveCost)
	}
	for j := range want.Assign {
		if got.Assign[j] != want.Assign[j] {
			t.Fatalf("assign[%d] = %d, want %d", j, got.Assign[j], want.Assign[j])
		}
	}
}

// TestRebalanceMatchesReference pins the flat kernel to the
// slice-of-structs original across the shared edge-case table, every
// placement order, and a spread of budgets including 0 and k > n.
func TestRebalanceMatchesReference(t *testing.T) {
	orders := []Order{OrderRemoval, OrderLargestFirst, OrderSmallestFirst}
	for _, tc := range edgecases.Table() {
		for _, ord := range orders {
			for _, k := range []int{0, 1, 2, tc.In.N(), tc.In.N() + 3} {
				want := refRebalance(tc.In, k, ord)
				got := Rebalance(tc.In, k, ord, nil)
				t.Run(tc.Name, func(t *testing.T) { assertSameSolution(t, want, got) })
			}
		}
	}
}

func TestRebalanceMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orders := []Order{OrderRemoval, OrderLargestFirst, OrderSmallestFirst}
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(8)
		n := rng.Intn(40)
		in := edgecases.Random(rng, m, n, 50)
		k := rng.Intn(n + 4)
		ord := orders[rng.Intn(len(orders))]
		want := refRebalance(in, k, ord)
		got := Rebalance(in, k, ord, nil)
		assertSameSolution(t, want, got)
	}
}

// TestRebalanceFlatZeroAllocs is the allocation guard for the GREEDY
// kernel: with a warmed Scratch and no sink, RebalanceFlat must not
// touch the heap.
func TestRebalanceFlatZeroAllocs(t *testing.T) {
	in := instance.MustNew(4, []int64{9, 7, 5, 4, 3, 2, 2, 1}, nil, []int{0, 0, 0, 0, 1, 1, 2, 3})
	var f instance.Flat
	var sc Scratch
	f.Reset(in)
	RebalanceFlat(&f, 3, OrderLargestFirst, &sc, nil) // warm the scratch
	for _, ord := range []Order{OrderRemoval, OrderLargestFirst, OrderSmallestFirst} {
		ord := ord
		if n := testing.AllocsPerRun(100, func() {
			f.Reset(in)
			RebalanceFlat(&f, 3, ord, &sc, nil)
		}); n != 0 {
			t.Fatalf("order %v: RebalanceFlat allocates %.1f/op, want 0", ord, n)
		}
	}
}
