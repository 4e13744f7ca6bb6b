package core

import (
	"context"
	"sort"

	"repro/internal/obs"
)

// incrementalScan is the paper-faithful §3.1 M-PARTITION search: walk
// the discrete threshold values upward from the packing lower bound,
// maintaining L_T, L_E and every a_i, b_i, c_i with O(log n) work per
// threshold (Lemma 5/6), and evaluate the move count k̂ at each step
// without re-running PARTITION. The first threshold with k̂ ≤ k is the
// target; one full PARTITION pass at that value produces the solution.
//
// The threshold set per processor is exactly the paper's: the values
// 2·p_j where a job's large/small classification flips, the remaining
// totals total_i − prefix_i[q] where b_i steps (B_l in the paper), and
// the doubled remaining small loads 2·(total_i − prefix_i[q]) where a_i
// steps (A_l in the paper) — O(n) values overall.
//
// State lives in flat int32 arrays sized at construction, once per
// search; the per-threshold work (refresh + moves) allocates nothing —
// the binary searches are hand-rolled so no closure escapes, and the k̂
// selection sorts a reused order buffer with a concrete sorter.
type incrementalScan struct {
	s *solver

	// Per-processor state at the current threshold.
	largeCnt []int32
	a, b, c  []int32

	sumB       int64
	largeTotal int // L_T
	largeProcs int // processors holding ≥1 large job

	order  []int32 // k̂ selection scratch
	sorter procCSorter
}

// scanEvent is one (threshold, processor) refresh trigger.
type scanEvent struct {
	v    int64
	proc int32
}

func newIncrementalScan(s *solver) *incrementalScan {
	m := s.in.M
	return &incrementalScan{
		s:        s,
		largeCnt: make([]int32, m),
		a:        make([]int32, m),
		b:        make([]int32, m),
		c:        make([]int32, m),
		order:    make([]int32, m),
	}
}

// refresh recomputes processor p's state for threshold v in O(log n_p)
// via binary searches over the row prefix sums.
func (ic *incrementalScan) refresh(p int, v int64) {
	t, a, b := ic.s.rowCounts(p, v)

	// Apply the diffs to the aggregates.
	oldLarge := int(ic.largeCnt[p])
	ic.largeTotal += t - oldLarge
	if oldLarge > 0 && t == 0 {
		ic.largeProcs--
	} else if oldLarge == 0 && t > 0 {
		ic.largeProcs++
	}
	ic.sumB += int64(b - int(ic.b[p]))
	ic.largeCnt[p] = int32(t)
	ic.a[p] = int32(a)
	ic.b[p] = int32(b)
	ic.c[p] = int32(a - b)
}

// moves evaluates k̂ at the current threshold: L_E plus the a_i of the
// L_T processors with the smallest c_i (large-holders preferred on
// ties) plus the b_i of the rest — equivalently Σb + Σ_selected c + L_E.
func (ic *incrementalScan) moves() (int64, bool) {
	m := ic.s.in.M
	if ic.largeTotal > m {
		return 0, false
	}
	order := ic.order
	for p := range order {
		order[p] = int32(p)
	}
	ic.sorter = procCSorter{order: order, c: ic.c, largeCnt: ic.largeCnt}
	sort.Sort(&ic.sorter)
	k := ic.sumB + int64(ic.largeTotal-ic.largeProcs) // Σb + L_E
	for i := 0; i < ic.largeTotal; i++ {
		k += int64(ic.c[order[i]])
	}
	return k, true
}

// scan walks the thresholds and returns the first accepted target whose
// PARTITION run uses at most k moves, or ok=false if none exists
// (cannot happen for k ≥ 0, since the initial makespan needs zero
// moves). The accepted run is the solver's last probe, so the caller
// can snapshot its assignment directly. The walk polls ctx every 256
// threshold groups and aborts with ctx.Err() when it fires.
func (ic *incrementalScan) scan(ctx context.Context, k int) (int64, bool, error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	s := ic.s
	in := s.in
	lo, hi := in.LowerBound(), in.InitialMakespan()

	// Collect events: (threshold, processor). Each processor contributes
	// its 2·p_j flips, its remaining-total steps, and its doubled
	// remaining-small steps.
	var events []scanEvent
	sizes := s.flat.Sizes
	for p := 0; p < in.M; p++ {
		row := s.csr.Row(p)
		total := s.rowTotal(p)
		add := func(v int64) {
			if v > lo && v <= hi {
				events = append(events, scanEvent{v, int32(p)})
			}
		}
		for i, j := range row {
			add(2 * sizes[j])
			rem := total - s.rowPrefixSum(p, i+1)
			add(rem)
			add(2 * rem)
			// Also the no-removal boundaries.
			if i == 0 {
				add(total)
				add(2 * total)
			}
		}
	}
	sort.Slice(events, func(x, y int) bool { return events[x].v < events[y].v })

	// Initialize every processor at the lower bound.
	for p := 0; p < in.M; p++ {
		ic.refresh(p, lo)
	}
	try := func(v int64) bool {
		if v < s.flat.Max || v*int64(in.M) < s.flat.Total {
			return false
		}
		khat, ok := ic.moves()
		if s.sink != nil {
			s.sink.Count("core.scan_thresholds", 1)
			if s.sink.Tracing() {
				s.sink.Emit("threshold", obs.Fields{"target": v, "khat": khat, "feasible": ok && khat <= int64(k)})
			}
		}
		if !ok || khat > int64(k) {
			return false
		}
		if !s.runLight(v) || s.lastRemovals > k {
			// k̂ and the full run agree by construction; treat any
			// divergence as infeasible rather than returning an
			// over-budget solution.
			return false
		}
		return true
	}
	if try(lo) {
		return lo, true, nil
	}
	var groups int
	for i := 0; i < len(events); {
		if groups++; groups&255 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, false, err
			}
		}
		v := events[i].v
		for ; i < len(events) && events[i].v == v; i++ {
			ic.refresh(int(events[i].proc), v)
		}
		if try(v) {
			return v, true, nil
		}
	}
	// The initial makespan itself (zero moves) as the final rung.
	for p := 0; p < in.M; p++ {
		ic.refresh(p, hi)
	}
	if try(hi) {
		return hi, true, nil
	}
	return 0, false, nil
}
