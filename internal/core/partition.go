// Package core implements the paper's primary contribution: the §3
// PARTITION algorithm (a 1.5-approximation for load rebalancing given
// the optimal value), the §3.1 M-PARTITION algorithm that removes the
// known-OPT assumption, and the §3.2 extension to arbitrary relocation
// costs with a budget.
//
// All size arithmetic is integral. A job is "large" with respect to a
// target value V when 2·size > V (i.e. size > V/2), exactly the paper's
// Definition 1 with OPT replaced by the current guess.
package core

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/instance"
	"repro/internal/obs"
)

// Result is the outcome of one PARTITION run at a fixed target value.
type Result struct {
	// Feasible reports whether the target admits a PARTITION solution at
	// all (target at least every unconditional lower bound and at most m
	// large jobs). When false the other fields are zero.
	Feasible bool
	// Target is the value V the run was performed against.
	Target int64
	// Removals is the number of job removals PARTITION performed; by the
	// paper's Lemma 4 this never exceeds the number of moves an optimal
	// solution with makespan ≤ Target needs.
	Removals int
	// LargeTotal is L_T, the number of jobs larger than Target/2, and
	// LargeExtra is L_E, how many of them shared a processor with
	// another large job (the Step 1 removals).
	LargeTotal, LargeExtra int
	// Selected lists the Step 3 processors (the L_T smallest c_i values,
	// ties preferring large-holders), in increasing index order.
	Selected []int
	// Solution is the produced assignment with recomputed metrics. Its
	// Moves never exceeds Removals (a removed job may return home).
	Solution instance.Solution
}

// solver holds the target-independent preprocessing shared by every
// probe of the same instance: a flat struct-of-arrays view of the
// instance (instance.Flat) and a CSR per-processor job index whose rows
// are sorted by decreasing size. M-PARTITION probes O(log C) targets,
// so building the ordered rows once, outside the probe (an O(n · bytes)
// radix build, DESIGN.md §12), keeps that cost from repeating per probe.
//
// A solver also owns all per-probe scratch, so repeated probes (the
// bisection and the incremental scan) run with zero steady-state heap
// allocations: probeFlat and probeCount touch only the flat arrays
// below, and the parts of Result that escape to the caller (Selected,
// the Solution's copied assignment) are materialized once, by run() or
// at a search's accepted target. A solver is confined to a single
// goroutine; the parallel surfaces build one solver per M-PARTITION
// call, so the scratch is never shared.
type solver struct {
	in   *instance.Instance
	flat instance.Flat
	csr  instance.CSR // rows sorted by (size desc, id asc)
	// rowPrefix[csr.Start[p]+i] is the summed size of the first i+1 jobs
	// of row p — the prefix sums rowCounts and the incremental scan read.
	rowPrefix []int64

	// sink is the observability handle; nil disables instrumentation
	// (the only cost left on the probe path is nil checks). The counters
	// and histograms are resolved once here, not per probe.
	sink          *obs.Sink
	probes        *obs.Counter
	probesOK      *obs.Counter
	removalsTotal *obs.Counter
	probeRemovals *obs.Histogram

	// Per-probe scratch, reused across probes of the same solver. The
	// four per-processor count arrays are also the incremental scan's
	// state between thresholds; a full probe at a threshold recounts
	// them to the same values.
	largeCnt     []int32 // per-processor large-job count (Step 1)
	aArr         []int32 // Step 2 a_i
	bArr         []int32 // Step 2 b_i
	cArr         []int32 // c_i = a_i − b_i
	assign       []int32 // working assignment, reset from the flat view each probe
	order        []int32 // Step 3 processor ordering
	selected     []bool  // Step 3 selection flags
	selectedList []int32 // selected processors in increasing index order
	freeSlots    []int32 // selected large-free processors
	removedLarge []int32 // removal lists (Step 1/3/4)
	removedSmall []int32
	loads        []int64 // Step 6 running loads
	removed      []bool  // job-indexed removed-small membership (Step 6)
	heapItems    []int32 // Step 6 min-load heap backing array
	orderSorter  procCSorter

	// Probe outputs: countRemovals sets the last* counts, probeFlat
	// the makespan (each valid after it returns true).
	lastRemovals   int
	lastLargeTotal int
	lastLargeExtra int
	probeMakespan  int64

	// Search scratch (MPartition).
	assignInt []int
}

func newSolver(in *instance.Instance, sink *obs.Sink) *solver {
	s := &solver{in: in, sink: sink}
	if sink != nil {
		s.probes = sink.Reg.Counter("core.probes")
		s.probesOK = sink.Reg.Counter("core.probes_feasible")
		s.removalsTotal = sink.Reg.Counter("core.removals")
		s.probeRemovals = sink.Reg.Histogram("core.probe_removals")
	}
	s.flat.Reset(in)
	// The working assignment is overwritten by every probe, so it lends
	// the row build its scratch.
	s.assign = make([]int32, in.N())
	s.csr.Reset(in.M, s.flat.Assign, s.flat.Sizes, s.assign)
	s.prepare()
	return s
}

// prepare builds the row prefix sums over s.flat and s.csr and sizes
// the per-probe scratch to their n and m, reusing capacity: newSolver
// and Warm.refresh both finish here, so the cold and warm solvers are
// sized by one list. The boolean scratch keeps its all-false
// steady-state invariant: probeFlat resets every entry it sets, and
// fresh allocations come zeroed.
func (s *solver) prepare() {
	n, m := len(s.flat.Sizes), s.flat.M
	s.rowPrefix = instance.GrowSlice(s.rowPrefix, n)
	for p := 0; p < m; p++ {
		var sum int64
		for i, j := range s.csr.Row(p) {
			sum += s.flat.Sizes[j]
			s.rowPrefix[int(s.csr.Start[p])+i] = sum
		}
	}
	s.largeCnt = instance.GrowSlice(s.largeCnt, m)
	s.aArr = instance.GrowSlice(s.aArr, m)
	s.bArr = instance.GrowSlice(s.bArr, m)
	s.cArr = instance.GrowSlice(s.cArr, m)
	s.assign = instance.GrowSlice(s.assign, n)
	s.order = instance.GrowSlice(s.order, m)
	s.selected = instance.GrowSlice(s.selected, m)
	s.loads = instance.GrowSlice(s.loads, m)
	s.removed = instance.GrowSlice(s.removed, n)
	s.heapItems = instance.GrowSlice(s.heapItems, m)
}

// rowPrefixSum returns the summed size of the q largest jobs on
// processor p.
func (s *solver) rowPrefixSum(p, q int) int64 {
	if q == 0 {
		return 0
	}
	return s.rowPrefix[int(s.csr.Start[p])+q-1]
}

// rowTotal returns the total load of processor p's initial row.
func (s *solver) rowTotal(p int) int64 {
	return s.rowPrefixSum(p, int(s.csr.Start[p+1]-s.csr.Start[p]))
}

// rowCounts writes processor p's PARTITION counts at target v into
// largeCnt, aArr, bArr and cArr in O(log n_p), by binary searches over
// the size-ordered row and its prefix sums: t, its number of large
// jobs, the Step 2 removal counts a_p and b_p, and c_p = a_p − b_p.
// The count probe and the incremental scan both fill PARTITION's
// per-processor state from here.
func (s *solver) rowCounts(p int, v int64) {
	row := s.csr.Row(p)
	sizes := s.flat.Sizes
	n := len(row)

	// Large jobs are the prefix with 2·size > v: find the first index
	// whose doubled size is ≤ v (sizes decrease along the row).
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if 2*sizes[row[mid]] <= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	t := lo

	// b_p: smallest q with total − prefix[q] ≤ v (strip largest first;
	// the retained large job is the largest, matching prefix order).
	// b counts removals from the post-Step-1 configuration, whose load
	// is total − (extra large jobs); the extras are jobs row[0..t-2]
	// when t ≥ 1 — the paper's b_i applies after Step 1, so strip the
	// extra-large prefix sum first.
	var extra int64
	base := 0
	if t >= 1 {
		extra = s.rowPrefixSum(p, t-1) // sizes of all large jobs except the smallest
		base = t - 1
	}
	total := s.rowTotal(p)
	adjTotal := total - extra
	baseSum := s.rowPrefixSum(p, base)
	// Removal order after Step 1: the kept large (index t−1), then the
	// smalls (indices ≥ t). Removing q jobs removes prefix[base+q] −
	// prefix[base] of load.
	lo, hi = 0, n-base
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adjTotal-(s.rowPrefixSum(p, base+mid)-baseSum) <= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	b := lo

	// a_p: smallest r with 2·(smallTotal − topSmallSum_r) ≤ v, i.e.
	// smallest q ≥ t with 2·(total − prefix[q]) ≤ v, minus t.
	lo, hi = 0, n-t
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if 2*(total-s.rowPrefixSum(p, t+mid)) <= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.largeCnt[p], s.aArr[p], s.bArr[p], s.cArr[p] = int32(t), int32(lo), int32(b), int32(lo-b)
}

// Partition runs the §3 PARTITION algorithm against target value target
// (the guessed optimal makespan). The produced solution has makespan at
// most 1.5·target whenever target is at least the true optimum, and its
// removal count is minimal in the sense of the paper's Lemma 3/4.
// Per-probe counters and probe_start / removal / probe_result trace
// events flow into sink; a nil sink disables instrumentation.
func Partition(in *instance.Instance, target int64, sink *obs.Sink) Result {
	return newSolver(in, sink).run(target)
}

// run executes one instrumented PARTITION probe and materializes the
// full Result (Selected and the Solution escape to the caller). The
// search loops use runLight instead and materialize only the accepted
// target.
func (s *solver) run(target int64) Result {
	res := Result{Target: target}
	if !s.runLight(target) {
		return res
	}
	res.Feasible = true
	res.Removals = s.lastRemovals
	res.LargeTotal = s.lastLargeTotal
	res.LargeExtra = s.lastLargeExtra
	if len(s.selectedList) > 0 {
		res.Selected = make([]int, len(s.selectedList))
		for i, p := range s.selectedList {
			res.Selected[i] = int(p)
		}
	}
	res.Solution = s.materialize(s.assign)
	return res
}

// runLight executes one PARTITION probe, wrapping probeFlat with the
// per-probe instrumentation so every return path emits exactly one
// probe_result event. It allocates nothing (tracing disabled); the
// probe outcome is left in the solver's last* fields and s.assign.
func (s *solver) runLight(target int64) bool {
	if s.sink == nil {
		return s.probeFlat(target)
	}
	if s.sink.Tracing() {
		s.sink.Emit("probe_start", obs.Fields{"target": target})
	}
	ok := s.probeFlat(target)
	s.record(target, ok)
	return ok
}

// runCount is one BinarySearch rung: probeCount decides it and feeds
// the counters. A tracing sink gets the rung's full event stream from
// runLight instead: the full probe is the count probe plus placement,
// so the traced rung still runs the kernel once.
func (s *solver) runCount(target int64) bool {
	if s.sink.Tracing() {
		return s.runLight(target)
	}
	ok := s.probeCount(target)
	if s.sink != nil {
		s.record(target, ok)
	}
	return ok
}

// record updates the per-probe counters for one probe's outcome and
// emits its probe_result event.
func (s *solver) record(target int64, ok bool) {
	s.probes.Inc()
	if ok {
		s.probesOK.Inc()
		s.removalsTotal.Add(int64(s.lastRemovals))
		s.probeRemovals.Observe(int64(s.lastRemovals))
	}
	if s.sink.Tracing() {
		f := obs.Fields{"target": target, "feasible": ok}
		if ok {
			f["removals"] = s.lastRemovals
			f["large_total"] = s.lastLargeTotal
			f["large_extra"] = s.lastLargeExtra
			f["makespan"] = s.probeMakespan
		}
		s.sink.Emit("probe_result", f)
	}
}

// materialize converts a kernel assignment into an escaping Solution
// with recomputed metrics.
func (s *solver) materialize(assign []int32) instance.Solution {
	s.assignInt = instance.GrowSlice(s.assignInt, len(assign))
	for j, p := range assign {
		s.assignInt[j] = int(p)
	}
	return instance.NewSolution(s.in, s.assignInt)
}

// probeFlat is the PARTITION kernel: Steps 1–6 of §3 over the flat
// arrays, zero heap allocations at steady state. probeCount decides the
// target and leaves Steps 1–2's per-processor counts, the L_T, L_E and
// removal totals and Step 3's c order in the solver; probeFlat then
// removes and places the jobs those counts name. On success the
// resulting assignment is in s.assign and its makespan in
// s.probeMakespan.
func (s *solver) probeFlat(target int64) bool {
	if !s.probeCount(target) {
		return false
	}
	f := &s.flat
	m := f.M
	sizes := f.Sizes
	assign := s.assign
	copy(assign, f.Assign)
	removedLarge, removedSmall := s.removedLarge[:0], s.removedSmall[:0]

	// Step 1: from each processor keep only its smallest large job (the
	// last of the large prefix).
	for p := 0; p < m; p++ {
		row := s.csr.Row(p)
		for i := int32(0); i < s.largeCnt[p]-1; i++ {
			removedLarge = append(removedLarge, row[i])
			if s.sink.Tracing() {
				s.sink.Emit("removal", obs.Fields{"target": target, "job": int(row[i]), "proc": p, "kind": "large", "step": 1})
			}
		}
	}

	// Step 3: select the L_T processors first in c order and strip their
	// a_i largest small jobs.
	selected := s.selected
	clear(selected)
	for _, p := range s.order[:s.lastLargeTotal] {
		selected[p] = true
	}
	// Selected large-free processors, in index order, will receive the
	// relocated large jobs.
	selectedList := s.selectedList[:0]
	freeSlots := s.freeSlots[:0]
	for p := 0; p < m; p++ {
		if selected[p] {
			selectedList = append(selectedList, int32(p))
			if s.largeCnt[p] == 0 {
				freeSlots = append(freeSlots, int32(p))
			}
		}
	}
	s.selectedList = selectedList
	for p := 0; p < m; p++ {
		if !selected[p] {
			continue
		}
		smalls := s.csr.Row(p)[s.largeCnt[p]:]
		for i := int32(0); i < s.aArr[p]; i++ {
			removedSmall = append(removedSmall, smalls[i])
			if s.sink.Tracing() {
				s.sink.Emit("removal", obs.Fields{"target": target, "job": int(smalls[i]), "proc": p, "kind": "small", "step": 3})
			}
		}
	}

	// Step 4: strip b_i jobs from each non-selected processor; displaced
	// large jobs go to distinct large-free processors from Step 3.
	for p := 0; p < m; p++ {
		if selected[p] {
			continue
		}
		row := s.csr.Row(p)
		lc := s.largeCnt[p]
		smalls := row[lc:]
		cnt := s.bArr[p]
		if lc > 0 && cnt > 0 {
			removedLarge = append(removedLarge, row[lc-1])
			cnt--
			if s.sink.Tracing() {
				s.sink.Emit("removal", obs.Fields{"target": target, "job": int(row[lc-1]), "proc": p, "kind": "large", "step": 4})
			}
		}
		for i := int32(0); i < cnt; i++ {
			removedSmall = append(removedSmall, smalls[i])
			if s.sink.Tracing() {
				s.sink.Emit("removal", obs.Fields{"target": target, "job": int(smalls[i]), "proc": p, "kind": "small", "step": 4})
			}
		}
	}

	// The appended scratch slices may have grown; retain the capacity
	// for the next probe before any return path.
	s.removedLarge, s.removedSmall, s.freeSlots = removedLarge, removedSmall, freeSlots

	// Steps 4–5: place every displaced large job (from Steps 1 and 4) on
	// its own large-free selected processor. Once L_T ≤ m there are
	// always enough of them (the counting argument of DESIGN.md §8).
	for i, j := range removedLarge {
		assign[j] = freeSlots[i]
	}

	// Step 6: greedy placement of the removed small jobs, largest first,
	// each onto the current minimum-load processor.
	loads := s.loads
	for p := range loads {
		loads[p] = 0
	}
	removedSet := s.removed // all-false between probes
	for _, j := range removedSmall {
		removedSet[j] = true
	}
	for j, p := range assign {
		if !removedSet[j] {
			loads[p] += sizes[j]
		}
	}
	for _, j := range removedSmall {
		removedSet[j] = false
	}
	slices.SortFunc(removedSmall, func(a, b int32) int {
		if c := cmp.Compare(sizes[b], sizes[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	items := s.heapItems
	for p := range items {
		items[p] = int32(p)
	}
	instance.HeapInit(items, loads, false)
	for _, j := range removedSmall {
		p := items[0]
		assign[j] = p
		loads[p] += sizes[j]
		instance.HeapFixRoot(items, loads, false)
	}

	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	s.probeMakespan = max
	return true
}

// probeCount decides PARTITION at target without placing a job: the
// feasibility and the removal count, from rowCounts for every processor
// and countRemovals — O(m log n) against the full probe's O(n). The
// counts go to the last* fields; s.assign and s.probeMakespan are left
// alone. probeFlat starts here and places what it counted.
func (s *solver) probeCount(target int64) bool {
	f := &s.flat
	if target < f.Max || target*int64(f.M) < f.Total {
		return false
	}
	for p := 0; p < f.M; p++ {
		s.rowCounts(p, target)
	}
	return s.countRemovals()
}

// countRemovals ends a count probe over the per-processor counts in
// largeCnt, aArr, bArr and cArr: it totals L_T and L_E, rejects
// L_T > m, and sums the move count k̂ — L_E, plus a_i over the L_T
// processors first in c order (Step 3), plus b_i over the rest
// (Step 4) — into the last* fields. O(m log m), for the one sort.
func (s *solver) countRemovals() bool {
	totalLarge, extra := 0, 0
	for _, t := range s.largeCnt {
		totalLarge += int(t)
		if t > 1 {
			extra += int(t) - 1 // Step 1 keeps one large job per processor
		}
	}
	if totalLarge > s.flat.M {
		return false
	}
	removals := extra
	for i, p := range s.sortByC() {
		if i < totalLarge {
			removals += int(s.aArr[p])
		} else {
			removals += int(s.bArr[p])
		}
	}
	s.lastRemovals, s.lastLargeTotal, s.lastLargeExtra = removals, totalLarge, extra
	return true
}

// sortByC orders the processors for the Step 3 selection over the
// current largeCnt and cArr, into s.order, and returns it.
func (s *solver) sortByC() []int32 {
	for p := range s.order {
		s.order[p] = int32(p)
	}
	s.orderSorter = procCSorter{order: s.order, c: s.cArr, largeCnt: s.largeCnt}
	sort.Sort(&s.orderSorter)
	return s.order
}

// procCSorter orders processor indices by increasing c_i, preferring
// large-holders on ties, index ascending last — the Step 3 selection
// order. A concrete sort.Interface so sorting allocates nothing.
type procCSorter struct {
	order    []int32
	c        []int32
	largeCnt []int32
}

func (s *procCSorter) Len() int { return len(s.order) }

func (s *procCSorter) Less(x, y int) bool {
	px, py := s.order[x], s.order[y]
	if s.c[px] != s.c[py] {
		return s.c[px] < s.c[py]
	}
	hx, hy := s.largeCnt[px] > 0, s.largeCnt[py] > 0
	if hx != hy {
		return hx
	}
	return px < py
}

func (s *procCSorter) Swap(x, y int) { s.order[x], s.order[y] = s.order[y], s.order[x] }
