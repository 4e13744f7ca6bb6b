package core_test

// The reference implementation below is the pre-flat slice-of-structs
// PARTITION, kept verbatim (minus observability) as the oracle the
// probe kernel is checked against at every integer target from two
// below the packing lower bound to two above the initial makespan, and
// at 1.5× the initial makespan: same removals, same selection, same
// tie-breaks, identical Result field by field. It counts each
// processor's large jobs, a_i and b_i by its own linear loops, so it is
// the one check of the kernel's counts that does not run rowCounts.

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/edgecases"
	"repro/internal/instance"
)

type refResult struct {
	Feasible               bool
	Target                 int64
	Removals               int
	LargeTotal, LargeExtra int
	Selected               []int
	Solution               instance.Solution
}

type refSolver struct {
	in     *instance.Instance
	byProc [][]int

	states       []refProcState
	assign       []int
	order        []int
	selected     []bool
	freeSlots    []int
	removedLarge []int
	removedSmall []int
	loads        []int64
	removed      []bool
	heapItems    []int
}

func newRefSolver(in *instance.Instance) *refSolver {
	s := &refSolver{in: in, byProc: instance.JobsOn(in.M, in.Assign)}
	for p := range s.byProc {
		list := s.byProc[p]
		sort.Slice(list, func(x, y int) bool {
			if in.Jobs[list[x]].Size != in.Jobs[list[y]].Size {
				return in.Jobs[list[x]].Size > in.Jobs[list[y]].Size
			}
			return list[x] < list[y]
		})
	}
	s.states = make([]refProcState, in.M)
	s.assign = make([]int, in.N())
	s.order = make([]int, in.M)
	s.selected = make([]bool, in.M)
	s.loads = make([]int64, in.M)
	s.removed = make([]bool, in.N())
	s.heapItems = make([]int, 0, in.M)
	return s
}

type refProcState struct {
	jobs     []int
	largeCnt int
	a        int
	b        int
	c        int
}

func refPartition(in *instance.Instance, target int64) refResult {
	return newRefSolver(in).runProbe(target)
}

func (s *refSolver) runProbe(target int64) refResult {
	in := s.in
	res := refResult{Target: target}
	if target < in.MaxSize() || target*int64(in.M) < in.TotalSize() {
		return res
	}

	jobs := in.Jobs
	states := s.states
	totalLarge := 0
	for p := 0; p < in.M; p++ {
		st := &states[p]
		st.jobs = s.byProc[p]
		st.largeCnt, st.a, st.b, st.c = 0, 0, 0, 0
		for _, j := range st.jobs {
			if 2*jobs[j].Size > target {
				st.largeCnt++
			} else {
				break
			}
		}
		totalLarge += st.largeCnt
	}
	if totalLarge > in.M {
		return res
	}

	assign := s.assign
	copy(assign, in.Assign)
	removals := 0
	removedLarge, removedSmall := s.removedLarge[:0], s.removedSmall[:0]

	for p := range states {
		st := &states[p]
		for i := 0; i < st.largeCnt-1; i++ {
			removedLarge = append(removedLarge, st.jobs[i])
			removals++
		}
	}
	res.LargeExtra = removals
	res.LargeTotal = totalLarge

	for p := range states {
		st := &states[p]
		smalls := st.jobs[st.largeCnt:]
		var smallTotal int64
		for _, j := range smalls {
			smallTotal += jobs[j].Size
		}
		rem := smallTotal
		for st.a = 0; 2*rem > target; st.a++ {
			rem -= jobs[smalls[st.a]].Size
		}
		total := smallTotal
		var keep int64
		if st.largeCnt > 0 {
			keep = jobs[st.jobs[st.largeCnt-1]].Size
			total += keep
		}
		rem = total
		cnt := 0
		if keep > 0 && rem > target {
			rem -= keep
			cnt++
		}
		for i := 0; rem > target; i++ {
			rem -= jobs[smalls[i]].Size
			cnt++
		}
		st.b = cnt
		st.c = st.a - st.b
	}

	order := s.order
	for p := range order {
		order[p] = p
	}
	sort.Slice(order, func(x, y int) bool {
		sx, sy := &states[order[x]], &states[order[y]]
		if sx.c != sy.c {
			return sx.c < sy.c
		}
		hx, hy := sx.largeCnt > 0, sy.largeCnt > 0
		if hx != hy {
			return hx
		}
		return order[x] < order[y]
	})
	selected := s.selected
	for p := range selected {
		selected[p] = false
	}
	for i := 0; i < totalLarge; i++ {
		selected[order[i]] = true
	}
	freeSlots := s.freeSlots[:0]
	for p := 0; p < in.M; p++ {
		if selected[p] {
			res.Selected = append(res.Selected, p)
			if states[p].largeCnt == 0 {
				freeSlots = append(freeSlots, p)
			}
		}
	}
	for p := range states {
		st := &states[p]
		if !selected[p] {
			continue
		}
		smalls := st.jobs[st.largeCnt:]
		for i := 0; i < st.a; i++ {
			removedSmall = append(removedSmall, smalls[i])
			removals++
		}
	}

	for p := range states {
		st := &states[p]
		if selected[p] {
			continue
		}
		smalls := st.jobs[st.largeCnt:]
		cnt := st.b
		if st.largeCnt > 0 && cnt > 0 {
			removedLarge = append(removedLarge, st.jobs[st.largeCnt-1])
			removals++
			cnt--
		}
		for i := 0; i < cnt; i++ {
			removedSmall = append(removedSmall, smalls[i])
			removals++
		}
	}

	s.removedLarge, s.removedSmall, s.freeSlots = removedLarge, removedSmall, freeSlots

	if len(removedLarge) > len(freeSlots) {
		return refResult{Target: target}
	}
	for i, j := range removedLarge {
		assign[j] = freeSlots[i]
	}

	loads := s.loads
	for p := range loads {
		loads[p] = 0
	}
	removedSet := s.removed
	for _, j := range removedSmall {
		removedSet[j] = true
	}
	for j, p := range assign {
		if !removedSet[j] {
			loads[p] += jobs[j].Size
		}
	}
	for _, j := range removedSmall {
		removedSet[j] = false
	}
	sort.Slice(removedSmall, func(x, y int) bool {
		if jobs[removedSmall[x]].Size != jobs[removedSmall[y]].Size {
			return jobs[removedSmall[x]].Size > jobs[removedSmall[y]].Size
		}
		return removedSmall[x] < removedSmall[y]
	})
	h := &refMinLoadHeap{items: s.heapItems[:0], loads: loads}
	for p := 0; p < in.M; p++ {
		h.items = append(h.items, p)
	}
	heap.Init(h)
	for _, j := range removedSmall {
		p := h.items[0]
		assign[j] = p
		loads[p] += jobs[j].Size
		heap.Fix(h, 0)
	}
	s.heapItems = h.items

	res.Feasible = true
	res.Removals = removals
	res.Solution = instance.NewSolution(in, assign)
	return res
}

type refMinLoadHeap struct {
	items []int
	loads []int64
}

func (h *refMinLoadHeap) Len() int { return len(h.items) }

func (h *refMinLoadHeap) Less(a, b int) bool {
	la, lb := h.loads[h.items[a]], h.loads[h.items[b]]
	if la != lb {
		return la < lb
	}
	return h.items[a] < h.items[b]
}

func (h *refMinLoadHeap) Swap(a, b int) { h.items[a], h.items[b] = h.items[b], h.items[a] }

func (h *refMinLoadHeap) Push(x any) { h.items = append(h.items, x.(int)) }

func (h *refMinLoadHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// refTargets is the set of target values equivalence is checked at:
// every integer in [lo − 2, hi + 2], lo the packing lower bound and hi
// the initial makespan, so every large/small flip and every a_i and b_i
// step between them is visited, plus 1.5 × hi.
func refTargets(in *instance.Instance) []int64 {
	lo, hi := in.LowerBound(), in.InitialMakespan()
	var targets []int64
	for v := lo - 2; v <= hi+2; v++ {
		targets = append(targets, v)
	}
	return append(targets, hi+hi/2)
}

func comparePartition(t *testing.T, in *instance.Instance, target int64) {
	t.Helper()
	want := refPartition(in, target)
	got := core.Partition(in, target, nil)
	if got.Feasible != want.Feasible || got.Target != want.Target ||
		got.Removals != want.Removals || got.LargeTotal != want.LargeTotal ||
		got.LargeExtra != want.LargeExtra {
		t.Fatalf("target %d: got %+v, want %+v", target, got, want)
	}
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("target %d: selected %v, want %v", target, got.Selected, want.Selected)
	}
	for i := range want.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("target %d: selected %v, want %v", target, got.Selected, want.Selected)
		}
	}
	if got.Solution.Makespan != want.Solution.Makespan ||
		got.Solution.Moves != want.Solution.Moves ||
		got.Solution.MoveCost != want.Solution.MoveCost {
		t.Fatalf("target %d: solution metrics got %+v, want %+v", target, got.Solution, want.Solution)
	}
	for j := range want.Solution.Assign {
		if got.Solution.Assign[j] != want.Solution.Assign[j] {
			t.Fatalf("target %d: assign[%d] = %d, want %d", target, j, got.Solution.Assign[j], want.Solution.Assign[j])
		}
	}
}

// TestPartitionMatchesReference pins the flat probe kernel to the
// slice-of-structs original on the shared edge-case table.
func TestPartitionMatchesReference(t *testing.T) {
	for _, tc := range edgecases.Table() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, target := range refTargets(tc.In) {
				comparePartition(t, tc.In, target)
			}
		})
	}
}

func TestPartitionMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(8)
		n := 1 + rng.Intn(40)
		in := edgecases.Random(rng, m, n, 60)
		for _, target := range refTargets(in) {
			comparePartition(t, in, target)
		}
		// A handful of arbitrary targets, including infeasible ones.
		for i := 0; i < 6; i++ {
			comparePartition(t, in, rng.Int63n(2*in.TotalSize()+2))
		}
	}
}

// FuzzPartitionMatchesReference compares the kernel with the reference
// field by field on an arbitrary small instance, built from the fuzz
// bytes as FuzzMPartitionInvariants builds its own, and an arbitrary
// target in [0, total + 2], which covers every feasible value up to two
// above the initial makespan.
func FuzzPartitionMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint16(40), []byte{5, 9, 2, 200, 17})
	f.Add(uint8(1), uint16(7), []byte{255})
	f.Add(uint8(5), uint16(3), []byte{1, 1, 1, 1, 1, 1, 1, 64, 128, 192})
	f.Add(uint8(2), uint16(60), []byte{90, 90, 90})
	f.Fuzz(func(t *testing.T, mRaw uint8, vRaw uint16, raw []byte) {
		in := core.FuzzInstance(mRaw, raw)
		comparePartition(t, in, int64(vRaw)%(in.TotalSize()+3))
	})
}
