// Package greedy implements the §2 GREEDY algorithm of the paper, a
// variant of Graham's greedy heuristic with a tight approximation ratio
// of 2 − 1/m for the load rebalancing problem:
//
//  1. Repeat k times: from the maximum-load processor, remove the
//     largest job.
//  2. Consider the k removed jobs in some order and place each on the
//     current minimum-load processor.
//
// The paper's Step 2 order is arbitrary; the Order option selects it,
// which matters only for adversarial analysis (Theorem 1's tightness
// uses the largest job last). Running time is O((n + k) log n).
//
// The inner loops run on a flat struct-of-arrays view (instance.Flat)
// with pooled scratch, so a steady-state call allocates only the
// Solution that escapes to the caller (DESIGN.md §12).
package greedy

import (
	"sort"
	"sync"

	"repro/internal/instance"
	"repro/internal/obs"
)

// Order selects the Step 2 placement order of the removed jobs.
type Order int

const (
	// OrderRemoval places jobs in the order they were removed
	// (the paper's "arbitrary order").
	OrderRemoval Order = iota
	// OrderLargestFirst places big jobs first (LPT-style), the strongest
	// practical choice.
	OrderLargestFirst
	// OrderSmallestFirst places big jobs last, the adversarial order
	// realizing the 2 − 1/m lower bound of Theorem 1.
	OrderSmallestFirst
)

// Scratch is the working memory of one RebalanceFlat call. A zero value
// is ready to use; backing arrays grow on first use and are reused
// afterwards, so a recycled Scratch makes RebalanceFlat allocation-free.
// A Scratch is confined to one goroutine at a time.
type Scratch struct {
	flat      instance.Flat // adapter-owned flat view (Rebalance)
	csr       instance.CSR
	heads     []int32 // per-processor cursor into csr.Jobs
	loads     []int64
	heapItems []int32
	removed   []int32
	order     []int32 // row-build scratch for csr.Reset
	ordSorter stableSizeSorter

	// Assign is the result assignment of the last RebalanceFlat call.
	// It is scratch memory: callers must copy it out before releasing.
	Assign []int32
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// FlatResult summarizes a RebalanceFlat run; the assignment itself is
// left in the Scratch.
type FlatResult struct {
	Makespan int64
	Moves    int
	MoveCost int64
}

// Rebalance runs GREEDY with move budget k and returns the resulting
// assignment with recomputed metrics. k may exceed n; removals stop
// early once every processor is empty. The instance is not modified.
// Step 1 removals and Step 2 placements emit removal/placement events
// and update the greedy.* metrics in sink; a nil sink disables
// instrumentation.
func Rebalance(in *instance.Instance, k int, order Order, sink *obs.Sink) instance.Solution {
	if k <= 0 || in.N() == 0 {
		return instance.NewSolution(in, in.Assign)
	}
	sc := scratchPool.Get().(*Scratch)
	sc.flat.Reset(in)
	res := RebalanceFlat(&sc.flat, k, order, sc, sink)
	assign := make([]int, len(sc.Assign))
	for j, p := range sc.Assign {
		assign[j] = int(p)
	}
	scratchPool.Put(sc)
	return instance.Solution{
		Assign:   assign,
		Makespan: res.Makespan,
		Moves:    res.Moves,
		MoveCost: res.MoveCost,
	}
}

// RebalanceFlat is the GREEDY kernel: it runs entirely on the flat view
// and sc's scratch arrays, leaving the result assignment in sc.Assign.
// With a warmed Scratch and tracing disabled it performs zero heap
// allocations. f and sc must not be mutated concurrently.
func RebalanceFlat(f *instance.Flat, k int, order Order, sc *Scratch, sink *obs.Sink) FlatResult {
	n, m := f.N(), f.M
	assign := instance.GrowSlice(sc.Assign, n)
	copy(assign, f.Assign)
	sc.Assign = assign
	if k <= 0 || n == 0 {
		// Nothing moves; the makespan is the initial one.
		loads := instance.GrowSlice(sc.loads, m)
		for p := range loads {
			loads[p] = 0
		}
		for j, p := range assign {
			loads[p] += f.Sizes[j]
		}
		sc.loads = loads
		var max int64
		for _, l := range loads {
			if l > max {
				max = l
			}
		}
		return FlatResult{Makespan: max}
	}
	// Resolve metrics once; heap-op counting in the loops is a single
	// cached-counter increment when enabled, a nil check when not.
	var removalsC, placementsC, heapOpsC *obs.Counter
	var movedSizeH *obs.Histogram
	if sink != nil {
		removalsC = sink.Reg.Counter("greedy.removals")
		placementsC = sink.Reg.Counter("greedy.placements")
		heapOpsC = sink.Reg.Counter("greedy.heap_ops")
		movedSizeH = sink.Reg.Histogram("greedy.moved_size")
	}

	// Per-processor job rows sorted by decreasing size; heads[p] is the
	// absolute cursor of the next (largest remaining) job of row p.
	sc.order = instance.GrowSlice(sc.order, n)
	sc.csr.Reset(m, assign, f.Sizes, sc.order)
	heads := instance.GrowSlice(sc.heads, m)
	loads := instance.GrowSlice(sc.loads, m)
	for p := 0; p < m; p++ {
		heads[p] = sc.csr.Start[p]
		loads[p] = 0
	}
	sc.heads, sc.loads = heads, loads
	for j, p := range assign {
		loads[p] += f.Sizes[j]
	}

	// Step 1: k removals from the max-load processor.
	items := instance.GrowSlice(sc.heapItems, m)
	sc.heapItems = items
	for p := range items {
		items[p] = int32(p)
	}
	instance.HeapInit(items, loads, true)
	removed := sc.removed[:0]
	for r := 0; r < k; r++ {
		p := items[0]
		if heads[p] == sc.csr.Start[p+1] {
			// Max-load processor has no jobs left: every job is removed.
			break
		}
		j := sc.csr.Jobs[heads[p]]
		heads[p]++
		loads[p] -= f.Sizes[j]
		instance.HeapFixRoot(items, loads, true)
		removed = append(removed, j)
		if sink != nil {
			removalsC.Inc()
			heapOpsC.Inc()
			movedSizeH.Observe(f.Sizes[j])
			if sink.Tracing() {
				sink.Emit("removal", obs.Fields{"job": int(j), "proc": int(p), "size": f.Sizes[j], "alg": "greedy"})
			}
		}
	}
	sc.removed = removed

	// Step 2: place removed jobs on the current min-load processor. The
	// Largest/SmallestFirst orders are stable over the removal sequence.
	switch order {
	case OrderLargestFirst:
		sc.ordSorter = stableSizeSorter{ids: removed, sizes: f.Sizes, desc: true}
		sort.Stable(&sc.ordSorter)
	case OrderSmallestFirst:
		sc.ordSorter = stableSizeSorter{ids: removed, sizes: f.Sizes}
		sort.Stable(&sc.ordSorter)
	}
	instance.HeapInit(items, loads, false)
	for _, j := range removed {
		p := items[0]
		assign[j] = p
		loads[p] += f.Sizes[j]
		instance.HeapFixRoot(items, loads, false)
		if sink != nil {
			placementsC.Inc()
			heapOpsC.Inc()
			if sink.Tracing() {
				sink.Emit("placement", obs.Fields{"job": int(j), "proc": int(p), "size": f.Sizes[j], "alg": "greedy"})
			}
		}
	}
	// The loads array now holds the final per-processor loads, so the
	// solution metrics come out of scratch already in hand.
	var res FlatResult
	for _, l := range loads {
		if l > res.Makespan {
			res.Makespan = l
		}
	}
	for j, p := range assign {
		if p != f.Assign[j] {
			res.Moves++
			res.MoveCost += f.Costs[j]
		}
	}
	if sink.Tracing() {
		sink.Emit("search_result", obs.Fields{
			"alg": "greedy", "k": k, "makespan": res.Makespan, "moves": res.Moves,
		})
	}
	return res
}

// stableSizeSorter orders job IDs by size (descending when desc),
// relying on sort.Stable to preserve the removal order among equals —
// the contract OrderLargestFirst/OrderSmallestFirst document.
type stableSizeSorter struct {
	ids   []int32
	sizes []int64
	desc  bool
}

func (s *stableSizeSorter) Len() int { return len(s.ids) }

func (s *stableSizeSorter) Less(a, b int) bool {
	if s.desc {
		return s.sizes[s.ids[a]] > s.sizes[s.ids[b]]
	}
	return s.sizes[s.ids[a]] < s.sizes[s.ids[b]]
}

func (s *stableSizeSorter) Swap(a, b int) { s.ids[a], s.ids[b] = s.ids[b], s.ids[a] }
