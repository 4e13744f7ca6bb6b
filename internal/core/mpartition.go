package core

import (
	"context"
	"slices"

	"repro/internal/instance"
	"repro/internal/obs"
)

// SearchMode selects how MPartition locates its target value (§3.1).
// The three modes return identical solutions. BinarySearch is the one
// every caller that answers runs; the two ladder scans stay as the E11
// ablation and as test oracles.
type SearchMode int

const (
	// BinarySearch performs an integer binary search on the target value
	// between the packing lower bound and the initial makespan. It is
	// correct without monotonicity assumptions: on termination the value
	// below the returned target is infeasible, and every value ≥ OPT is
	// feasible (the paper's Lemma 4), so the returned target is ≤ OPT.
	// Each rung is a count probe, O(m log n); PARTITION runs in full
	// once, at the accepted target.
	BinarySearch SearchMode = iota
	// ThresholdScan walks the paper's discrete threshold ladder (all
	// values at which L_T, any a_i or any b_i can change) upward from
	// the lower bound, re-running PARTITION at each rung. Simple and
	// faithful to Lemma 5/6, but it materializes an O(n²) candidate
	// superset; kept as the cross-check oracle for the other modes.
	ThresholdScan
	// IncrementalScan is the paper's actual §3.1 algorithm: the same
	// ladder walked with O(log n) incremental updates of L_T and every
	// a_i, b_i, c_i per threshold, evaluating the move count k̂ directly
	// and running PARTITION only once, at the accepted target. It
	// re-sorts the m processors by c_i at every threshold, which makes
	// it about 2× slower than BinarySearch at n = 400
	// (BenchmarkE11Ablation).
	IncrementalScan
)

// MPartition implements §3.1 M-PARTITION: it finds a target value V̂ no
// larger than the optimal makespan achievable with at most k moves, runs
// PARTITION against it, and returns the resulting solution. The solution
// relocates at most k jobs and has makespan at most 1.5·OPT(k).
//
// k < 0 is treated as 0. The fallback for pathological infeasibility is
// the initial assignment (always valid with 0 moves). The target search
// polls ctx before every PARTITION probe (binary search and
// threshold-scan modes) and every batch of incremental-scan thresholds,
// returning ctx.Err() when the context is cancelled or its deadline
// expires mid-search. Every probe emits probe_start/removal/probe_result
// events and updates the core.* metrics in sink, and the accepted target
// emits a search_result event; a nil sink disables instrumentation.
func MPartition(ctx context.Context, in *instance.Instance, k int, mode SearchMode, sink *obs.Sink) (instance.Solution, error) {
	s := newSolver(in, sink) // sort once; every probe reuses the order
	return runMPartition(ctx, s, k, mode)
}

// runMPartition is the mode-dispatched target search over an already
// built solver — shared verbatim by the cold path (MPartition) and
// the warm session path (Warm.Solve), which is what guarantees the two
// produce identical solutions for identical solver states.
func runMPartition(ctx context.Context, s *solver, k int, mode SearchMode) (instance.Solution, error) {
	if k < 0 {
		k = 0
	}
	in, sink := s.in, s.sink

	// finish stamps the accepted target (0 for the do-nothing fallback)
	// on the returned solution's search_result event.
	finish := func(sol instance.Solution, target int64) (instance.Solution, error) {
		if sink.Tracing() {
			sink.Emit("search_result", obs.Fields{
				"k": k, "mode": mode.String(), "target": target,
				"makespan": sol.Makespan, "moves": sol.Moves,
			})
		}
		return sol, nil
	}

	lo, initial := in.LowerBound(), in.InitialMakespan()
	hi := initial
	if lo >= hi {
		// The initial assignment is already optimal.
		return finish(instance.NewSolution(in, in.Assign), hi)
	}

	// Every search mode leaves the accepted target's PARTITION run as
	// the solver's last full probe, so its assignment is materialized
	// straight from s.assign.
	var best int64
	found := false
	switch mode {
	case ThresholdScan:
		for _, v := range s.ladder(lo, hi) {
			// Cancellation point: one probe per ladder rung.
			if err := ctx.Err(); err != nil {
				return instance.Solution{}, err
			}
			if s.runLight(v) && s.lastRemovals <= k {
				best, found = v, true
				break
			}
		}
	case IncrementalScan:
		var err error
		if best, found, err = newIncrementalScan(s).scan(ctx, k); err != nil {
			return instance.Solution{}, err
		}
	default:
		// Count probes decide every rung. Invariant: hi is feasible (if
		// it is — verified below), and whenever lo is raised the value
		// below it was infeasible.
		probe := func(v int64) bool {
			return s.runCount(v) && s.lastRemovals <= k
		}
		if probe(hi) {
			best, found = hi, true
			for lo < hi {
				// Cancellation point: one probe per bisection step.
				if err := ctx.Err(); err != nil {
					return instance.Solution{}, err
				}
				mid := lo + (hi-lo)/2
				if probe(mid) {
					best, found = mid, true
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			// PARTITION runs once, in full, at the accepted target. Its
			// rung already reported to the sink, so this run is silent.
			sink := s.sink
			s.sink = nil
			found = s.probeFlat(best)
			s.sink = sink
		}
	}
	// Defensive: with k ≥ 0 the initial makespan is always reachable
	// with zero moves. Never return something worse than doing nothing.
	if !found || s.probeMakespan >= initial {
		return finish(instance.NewSolution(in, in.Assign), 0)
	}
	return finish(s.materialize(s.assign), best)
}

// String names the search mode for trace events.
func (m SearchMode) String() string {
	switch m {
	case ThresholdScan:
		return "threshold"
	case IncrementalScan:
		return "incremental"
	default:
		return "binary"
	}
}

// thresholdLadder returns, sorted ascending and deduplicated, every
// candidate target in [lo, hi] at which the execution of PARTITION can
// change (Lemma 5): values 2·p_j where a job's large/small status flips,
// the per-processor remaining-total sums governing b_i, and the
// per-regime doubled remaining-small sums governing a_i; lo itself is
// included since behaviour is constant between consecutive thresholds.
func thresholdLadder(in *instance.Instance, lo, hi int64) []int64 {
	return newSolver(in, nil).ladder(lo, hi)
}

// ladder is the threshold-ladder kernel: it enumerates the candidate
// set over the solver's size-sorted CSR rows and prefix sums into a
// fresh slice.
//
// Complexity: the a_i family enumerates every (cutoff t, strip count r)
// pair, so a processor holding n_i jobs contributes Θ(n_i²) candidates
// — the ladder is an O(n²) superset and a full ThresholdScan costs
// O(n² log n) time in the worst case (one O(n log n)-ish PARTITION
// evaluation per rung after the O(n² log n²) sort here). That is why
// ThresholdScan is only the cross-check oracle for the other modes.
// Materialization is capped at the in-range set: every generator below
// is monotone decreasing, so candidates are appended only while they
// can still land in [lo, hi] and each generator breaks out as soon as
// its values fall below lo — out-of-range candidates are never stored,
// hashed, or iterated.
func (s *solver) ladder(lo, hi int64) []int64 {
	out := []int64{lo, hi}
	add := func(v int64) {
		if v >= lo && v <= hi {
			out = append(out, v)
		}
	}
	sizes := s.flat.Sizes
	for p := 0; p < s.flat.M; p++ {
		row := s.csr.Row(p)
		total := s.rowTotal(p)
		// L_T breakpoints 2·p_j: sizes are sorted decreasing, so stop
		// once the doubled size drops below lo.
		for _, j := range row {
			v := 2 * sizes[j]
			if v < lo {
				break
			}
			add(v)
		}
		// b_i breakpoints: remaining totals after stripping the r
		// largest jobs — strictly decreasing in r.
		rem := total
		add(rem)
		for _, j := range row {
			rem -= sizes[j]
			if rem < lo {
				break
			}
			add(rem)
		}
		// a_i breakpoints: for each large/small cutoff position t (jobs
		// before t are large in some regime), the doubled remaining
		// small sums after stripping the r largest smalls. The suffix
		// total − prefix(t) is decreasing in t, and each inner walk
		// decreases in r, so both loops break at the lo boundary.
		for t := 0; t <= len(row); t++ {
			rem := total - s.rowPrefixSum(p, t)
			if 2*rem < lo {
				break
			}
			add(2 * rem)
			for r := t; r < len(row); r++ {
				rem -= sizes[row[r]]
				if 2*rem < lo {
					break
				}
				add(2 * rem)
			}
		}
	}
	slices.Sort(out)
	// In-place dedup of the sorted candidates.
	uniq := out[:1]
	for _, v := range out[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}
