// Warm solver state for incremental rebalancing sessions (DESIGN.md
// §15): a live instance whose per-processor rows, loads and solver
// buffers survive across mutations, so a re-solve after a delta skips
// what a cold MPartition call pays for — instance materialization and
// validation, the O(n · bytes) radix build of the size-ordered rows
// (instance.CSR.Reset), and every scratch allocation.
//
// Warm keeps its own ordered rows rather than rebuilding them with
// CSR.Reset on each re-solve: a delta moves a handful of jobs, and a
// binary-search insert or delete per touched row costs less than
// re-sorting all n jobs. A prototype that dropped the maintained rows
// and called CSR.Reset in refresh was about a third slower per delta at
// n=400, m=8, sizes ≤ 1000 (median 23.7 → 31.6 µs over six alternating
// 1 s runs, 2-vCPU shared Intel Xeon, go1.24).
package core

import (
	"context"

	"repro/internal/instance"
	"repro/internal/obs"
)

// Warm is the incremental-session counterpart of MPartition. Mutators
// (Add, Remove, Resize, Move, AddProc, RemoveProc) maintain the
// per-processor rows in the canonical (size desc, index asc) order the
// cold solver builds, so Solve and Probe only rebuild the CSR view in
// O(n + m), then size the solver through the same solver.prepare that
// newSolver ends with, before driving the cold path's own kernels
// (runMPartition and run).
//
// Equivalence contract: Solve and Probe produce results identical to
// the cold path — MPartition(Snapshot(), k, BinarySearch, ·) and
// Partition(Snapshot(), target) respectively — because both drive the
// same kernel over byte-identical solver state. The session
// differential harness (internal/session) pins this after every delta.
//
// Mutators trust their arguments (indices and processors in range,
// sizes positive); the session layer owns validation. A Warm is
// confined to a single goroutine.
type Warm struct {
	in    instance.Instance
	rows  [][]int32 // per-processor job indices, (size desc, index asc)
	loads []int64
	s     *solver
}

// NewWarm builds warm solver state from a validated starting instance
// (cloned; zero jobs is fine — deltas grow it).
func NewWarm(in *instance.Instance, sink *obs.Sink) (*Warm, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	w := &Warm{}
	w.in = *in.Clone()
	w.s = newSolver(&w.in, sink) // orders the rows once, cold
	w.rows = make([][]int32, w.in.M)
	for p := 0; p < w.in.M; p++ {
		w.rows[p] = append([]int32{}, w.s.csr.Row(p)...)
	}
	w.loads = make([]int64, w.in.M)
	for j, p := range w.in.Assign {
		w.loads[p] += w.in.Jobs[j].Size
	}
	return w, nil
}

// N returns the live job count.
func (w *Warm) N() int { return len(w.in.Jobs) }

// M returns the live processor count.
func (w *Warm) M() int { return w.in.M }

// JobSize returns the size of the job at index j.
func (w *Warm) JobSize(j int) int64 { return w.in.Jobs[j].Size }

// AssignOf returns the processor currently hosting the job at index j.
func (w *Warm) AssignOf(j int) int { return w.in.Assign[j] }

// Load returns processor p's current load.
func (w *Warm) Load(p int) int64 { return w.loads[p] }

// Loads copies the per-processor loads into dst (grown as needed).
func (w *Warm) Loads(dst []int64) []int64 {
	dst = instance.GrowSlice(dst, len(w.loads))
	copy(dst, w.loads)
	return dst
}

// Makespan returns the current maximum processor load.
func (w *Warm) Makespan() int64 {
	var max int64
	for _, l := range w.loads {
		if l > max {
			max = l
		}
	}
	return max
}

// TotalSize returns the summed size of all live jobs.
func (w *Warm) TotalSize() int64 {
	var t int64
	for _, l := range w.loads {
		t += l
	}
	return t
}

// LowerBound returns max(ceil(total/m), largest job) — the packing
// lower bound of the live state, in O(m) (the largest job on each
// processor heads its row).
func (w *Warm) LowerBound() int64 {
	lb := (w.TotalSize() + int64(w.in.M) - 1) / int64(w.in.M)
	for _, row := range w.rows {
		if len(row) > 0 {
			if s := w.in.Jobs[row[0]].Size; s > lb {
				lb = s
			}
		}
	}
	return lb
}

// MinLoadProc returns the lowest-indexed processor with minimum load,
// skipping processor skip (pass -1 to consider all); -1 when no
// processor qualifies.
func (w *Warm) MinLoadProc(skip int) int {
	best := -1
	for p, l := range w.loads {
		if p == skip {
			continue
		}
		if best == -1 || l < w.loads[best] {
			best = p
		}
	}
	return best
}

// Row returns processor p's job indices in (size desc, index asc)
// order. The slice is live state — callers must not hold it across a
// mutation or mutate it.
func (w *Warm) Row(p int) []int32 { return w.rows[p] }

// Snapshot materializes the current state as an independent Instance,
// jobs in internal index order — the exact instance the cold
// equivalence contract is stated against.
func (w *Warm) Snapshot() *instance.Instance { return w.in.Clone() }

// Add appends a job on processor proc and returns its index (always
// the current job count).
func (w *Warm) Add(size, cost int64, proc int) int {
	j := len(w.in.Jobs)
	w.in.Jobs = append(w.in.Jobs, instance.Job{ID: j, Size: size, Cost: cost})
	w.in.Assign = append(w.in.Assign, proc)
	w.rowInsert(proc, int32(j))
	w.loads[proc] += size
	return j
}

// Remove deletes the job at index j by swapping the last job into its
// slot: after the call the job formerly at index N()-1 lives at index
// j (callers tracking external IDs must remap), and the job count has
// shrunk by one.
func (w *Warm) Remove(j int) {
	last := len(w.in.Jobs) - 1
	w.rowDelete(w.in.Assign[j], int32(j))
	w.loads[w.in.Assign[j]] -= w.in.Jobs[j].Size
	if j != last {
		// Relabel the last job to index j: its position within its row
		// changes because the row order tie-breaks on index.
		w.rowDelete(w.in.Assign[last], int32(last))
		w.in.Jobs[j] = w.in.Jobs[last]
		w.in.Jobs[j].ID = j
		w.in.Assign[j] = w.in.Assign[last]
		w.rowInsert(w.in.Assign[j], int32(j))
	}
	w.in.Jobs = w.in.Jobs[:last]
	w.in.Assign = w.in.Assign[:last]
}

// Resize changes job j's size.
func (w *Warm) Resize(j int, size int64) {
	p := w.in.Assign[j]
	w.rowDelete(p, int32(j))
	w.loads[p] += size - w.in.Jobs[j].Size
	w.in.Jobs[j].Size = size
	w.rowInsert(p, int32(j))
}

// Move migrates job j to processor to (no-op when already there).
func (w *Warm) Move(j, to int) {
	from := w.in.Assign[j]
	if from == to {
		return
	}
	w.rowDelete(from, int32(j))
	w.in.Assign[j] = to
	w.rowInsert(to, int32(j))
	sz := w.in.Jobs[j].Size
	w.loads[from] -= sz
	w.loads[to] += sz
}

// AddProc grows the farm by one processor and returns its index.
func (w *Warm) AddProc() int {
	p := w.in.M
	w.in.M++
	w.rows = append(w.rows, nil)
	w.loads = append(w.loads, 0)
	return p
}

// RemoveProc deletes processor p, which must already be empty (the
// caller migrates its jobs off first), renumbering every processor
// above it down by one.
func (w *Warm) RemoveProc(p int) {
	copy(w.rows[p:], w.rows[p+1:])
	w.rows = w.rows[:len(w.rows)-1]
	copy(w.loads[p:], w.loads[p+1:])
	w.loads = w.loads[:len(w.loads)-1]
	w.in.M--
	for j, q := range w.in.Assign {
		if q > p {
			w.in.Assign[j] = q - 1
		}
	}
}

// Solve re-solves the current state with move budget k through the
// count-probe bisection, reusing every warm buffer. The returned
// solution is relative to the current assignment; it is NOT applied —
// use Move for that. Identical to MPartition(ctx, Snapshot(), k,
// BinarySearch, sink).
func (w *Warm) Solve(ctx context.Context, k int) (instance.Solution, error) {
	w.refresh()
	return runMPartition(ctx, w.s, k, BinarySearch)
}

// Probe runs one PARTITION probe at a fixed target against the current
// state — the movemin bicriteria primitive (makespan ≤ 1.5·target with
// optimal move count whenever the target is reachable; see
// movemin.Bicriteria) — reusing the warm buffers. Identical to
// Partition(Snapshot(), target).
func (w *Warm) Probe(target int64) Result {
	w.refresh()
	return w.s.run(target)
}

// refresh rebuilds the solver's probe state from the maintained rows
// in O(n + m) — flat copy, CSR concatenation, then the prefix sums and
// scratch sizing of solver.prepare, which newSolver ends with too —
// with no sorting and no steady-state allocation. After it returns,
// the solver is byte-identical to newSolver(Snapshot(), sink): the
// rows already carry the (size desc, index asc) order the cold build
// produces.
func (w *Warm) refresh() {
	s := w.s
	in := &w.in
	s.in = in
	s.flat.Reset(in)
	n, m := in.N(), in.M
	s.csr.Start = instance.GrowSlice(s.csr.Start, m+1)
	s.csr.Jobs = instance.GrowSlice(s.csr.Jobs, n)
	pos := int32(0)
	for p := 0; p < m; p++ {
		s.csr.Start[p] = pos
		pos += int32(copy(s.csr.Jobs[pos:], w.rows[p]))
	}
	s.csr.Start[m] = pos
	s.prepare()
}

// rowLess is the canonical row order: size descending, index ascending
// — exactly the order instance.CSR.Reset builds over the live sizes.
func (w *Warm) rowLess(a, b int32) bool {
	sa, sb := w.in.Jobs[a].Size, w.in.Jobs[b].Size
	if sa != sb {
		return sa > sb
	}
	return a < b
}

// rowInsert places job j into processor p's row at its sorted position.
func (w *Warm) rowInsert(p int, j int32) {
	row := w.rows[p]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.rowLess(row[mid], j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	row = append(row, 0)
	copy(row[lo+1:], row[lo:])
	row[lo] = j
	w.rows[p] = row
}

// rowDelete removes job j from processor p's row. j's size must still
// be the one the row was ordered under (mutate sizes only after
// deleting).
func (w *Warm) rowDelete(p int, j int32) {
	row := w.rows[p]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.rowLess(row[mid], j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// row[lo] == j by the strict total order.
	copy(row[lo:], row[lo+1:])
	w.rows[p] = row[:len(row)-1]
}
