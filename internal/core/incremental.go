package core

import (
	"context"
	"sort"

	"repro/internal/obs"
)

// The incremental scan is the paper-faithful §3.1 M-PARTITION search:
// walk the discrete threshold values upward from the packing lower
// bound, keeping every processor's L_T share and a_i, b_i, c_i current
// with O(log n) work per event (Lemma 5/6), and evaluate the move count
// k̂ at each step without re-running PARTITION. The first threshold
// with k̂ ≤ k is the target; one full PARTITION pass at that value
// produces the solution.
//
// The threshold set per processor is exactly the paper's: the values
// 2·p_j where a job's large/small classification flips, the remaining
// totals total_i − prefix_i[q] where b_i steps (B_l in the paper), and
// the doubled remaining small loads 2·(total_i − prefix_i[q]) where a_i
// steps (A_l in the paper) — O(n) values overall.
//
// The per-processor state is the solver's own count arrays: an event
// rewrites one processor's entry with rowCounts, and countRemovals —
// the count probe's own ending — reads k̂ from them, recomputing L_T
// and L_E in O(m) beside its O(m log m) sort of the c_i. So a
// threshold costs O(m log m) plus O(log n) per event, and allocates
// nothing.

// scanEvent is one (threshold, processor) refresh trigger.
type scanEvent struct {
	v    int64
	proc int32
}

// incrementalScan returns the first threshold whose PARTITION run uses
// at most k moves, or ok=false if none exists (cannot happen for
// k ≥ 0, since the initial makespan needs zero moves). The accepted
// run is the solver's last probe, so the caller can snapshot its
// assignment directly.
func (s *solver) incrementalScan(ctx context.Context, k int) (int64, bool, error) {
	m := s.flat.M
	return s.walkThresholds(ctx, func(v int64) bool {
		if v < s.flat.Max || v*int64(m) < s.flat.Total {
			return false
		}
		ok := s.countRemovals()
		khat := 0
		if ok {
			khat = s.lastRemovals
		}
		if s.sink != nil {
			s.sink.Count("core.scan_thresholds", 1)
			if s.sink.Tracing() {
				s.sink.Emit("threshold", obs.Fields{"target": v, "khat": khat, "feasible": ok && khat <= k})
			}
		}
		if !ok || khat > k {
			return false
		}
		if s.runLight(v) && s.lastRemovals <= k {
			return true
		}
		// k̂ and the full run agree by construction; treat a divergence
		// as infeasible rather than returning an over-budget solution.
		// The run overwrote the count arrays, so recount them at v
		// before the walk goes on.
		for p := 0; p < m; p++ {
			s.rowCounts(p, v)
		}
		return false
	})
}

// walkThresholds calls visit at the packing lower bound, at every
// event threshold in (lower bound, initial makespan] in increasing
// order, and at the initial makespan, each time with the solver's count
// arrays holding rowCounts at that threshold: between visits only the
// processors whose events fall at the new threshold are refreshed. It
// returns the first threshold visit accepts, and polls ctx every 256
// threshold groups, aborting with ctx.Err() when it fires.
func (s *solver) walkThresholds(ctx context.Context, visit func(v int64) bool) (int64, bool, error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
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
		s.rowCounts(p, lo)
	}
	if visit(lo) {
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
			s.rowCounts(int(events[i].proc), v)
		}
		if visit(v) {
			return v, true, nil
		}
	}
	// The initial makespan itself (zero moves) as the final rung.
	for p := 0; p < in.M; p++ {
		s.rowCounts(p, hi)
	}
	if visit(hi) {
		return hi, true, nil
	}
	return 0, false, nil
}
