// Flat-memory (struct-of-arrays) view of an instance, plus the shared
// low-level machinery the solver kernels run on: a CSR per-processor
// job index built in size order, and an int32-indexed binary heap over
// processor loads.
//
// The kernels in internal/core and internal/greedy operate exclusively
// on Flat + caller-owned scratch so that a steady-state probe performs
// no heap allocation (DESIGN.md §12).
package instance

// Flat is a struct-of-arrays projection of an Instance: parallel
// primitive slices indexed by job, plus the aggregate size statistics
// every probe's feasibility pre-check needs. All backing arrays are
// reused by Reset, so a pooled Flat reaches a steady state with zero
// allocations per conversion.
type Flat struct {
	M      int
	Sizes  []int64
	Costs  []int64
	Assign []int32
	Total  int64 // sum of Sizes
	Max    int64 // largest size, 0 when empty
}

// N returns the number of jobs in the view.
func (f *Flat) N() int { return len(f.Sizes) }

// Reset re-points the view at in, reusing backing capacity.
func (f *Flat) Reset(in *Instance) {
	n := len(in.Jobs)
	f.M = in.M
	f.Sizes = grow(f.Sizes, n)
	f.Costs = grow(f.Costs, n)
	f.Assign = grow(f.Assign, n)
	f.Total, f.Max = 0, 0
	for j := range in.Jobs {
		s := in.Jobs[j].Size
		f.Sizes[j] = s
		f.Costs[j] = in.Jobs[j].Cost
		f.Assign[j] = int32(in.Assign[j])
		f.Total += s
		if s > f.Max {
			f.Max = s
		}
	}
}

// grow returns s resized to n, reusing capacity when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// GrowSlice is grow for callers outside this package that manage their
// own scratch (resized content is unspecified, not zeroed).
func GrowSlice[T any](s []T, n int) []T { return grow(s, n) }

// CSR is a compressed per-processor job index: Row(p) lists the jobs an
// assignment places on processor p, in (size desc, id asc) order — the
// canonical per-processor order every kernel reads.
type CSR struct {
	Start []int32 // len m+1, row p is Jobs[Start[p]:Start[p+1]]
	Jobs  []int32 // len n, job IDs grouped by processor
}

// Reset rebuilds the index for assign over m processors, reusing
// backing capacity. sizes is indexed by job; tmp is caller scratch of
// length at least len(assign), and its contents are overwritten.
//
// The build sorts once for all rows, in O(n · bytes): a stable LSD
// radix sort of the job IDs on an order-reversing size key, one pass
// per byte in which some two sizes differ, then one stable counting
// pass by processor. Stability makes ties come out in ID order.
func (c *CSR) Reset(m int, assign []int32, sizes []int64, tmp []int32) {
	n := len(assign)
	c.Start = grow(c.Start, m+1)
	c.Jobs = grow(c.Jobs, n)
	tmp = tmp[:n]

	// Keys differ exactly where sizes do, so the skipped bytes come from
	// the sizes directly.
	var diff uint64
	for _, s := range sizes[:n] {
		diff |= uint64(s ^ sizes[0])
	}
	passes := 0
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) != 0 {
			passes++
		}
	}
	// Start in the buffer that leaves the sorted IDs in tmp.
	src, dst := tmp, c.Jobs
	if passes%2 == 1 {
		src, dst = c.Jobs, tmp
	}
	for j := range src {
		src[j] = int32(j)
	}
	var count [256]int32
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		clear(count[:])
		for _, s := range sizes[:n] {
			count[byte(descKey(s)>>shift)]++
		}
		at := int32(0)
		for b, k := range count {
			count[b] = at
			at += k
		}
		for _, j := range src {
			b := byte(descKey(sizes[j]) >> shift)
			dst[count[b]] = j
			count[b]++
		}
		src, dst = dst, src
	}

	clear(c.Start)
	for _, p := range assign {
		c.Start[p+1]++
	}
	for p := 0; p < m; p++ {
		c.Start[p+1] += c.Start[p]
	}
	// Start temporarily holds the next write cursor per processor; cursor
	// p ends exactly at row p+1's offset, so shifting restores the rows.
	for _, j := range tmp {
		p := assign[j]
		c.Jobs[c.Start[p]] = j
		c.Start[p]++
	}
	for p := m; p > 0; p-- {
		c.Start[p] = c.Start[p-1]
	}
	c.Start[0] = 0
}

// descKey maps a size to a radix key whose ascending order is the
// size's descending order.
func descKey(s int64) uint64 { return ^(uint64(s) ^ 1<<63) }

// Row returns the job IDs on processor p.
func (c *CSR) Row(p int) []int32 { return c.Jobs[c.Start[p]:c.Start[p+1]] }

// HeapInit establishes the binary-heap invariant over processor indices
// in items, ordered by loads with index tie-break (min-heap, or
// max-heap when max is set). The order is total, so the root is the
// unique extreme and heap-based algorithms are deterministic.
func HeapInit(items []int32, loads []int64, max bool) {
	for i := len(items)/2 - 1; i >= 0; i-- {
		heapSiftDown(items, loads, i, max)
	}
}

// HeapFixRoot restores the invariant after the root's load changed.
func HeapFixRoot(items []int32, loads []int64, max bool) {
	heapSiftDown(items, loads, 0, max)
}

func heapLess(items []int32, loads []int64, a, b int, max bool) bool {
	la, lb := loads[items[a]], loads[items[b]]
	if la != lb {
		if max {
			return la > lb
		}
		return la < lb
	}
	return items[a] < items[b]
}

func heapSiftDown(items []int32, loads []int64, i int, max bool) {
	n := len(items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && heapLess(items, loads, r, l, max) {
			best = r
		}
		if !heapLess(items, loads, best, i, max) {
			return
		}
		items[i], items[best] = items[best], items[i]
		i = best
	}
}
