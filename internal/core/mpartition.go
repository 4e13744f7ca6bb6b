package core

import (
	"context"

	"repro/internal/instance"
	"repro/internal/obs"
)

// SearchMode selects how MPartition locates its target value (§3.1).
// The two modes return identical solutions. BinarySearch is the one
// every caller that answers runs; IncrementalScan, the paper's own
// search, stays for the E11 ablation and as a cross-check. The tests
// hold a third search, the materialized threshold ladder, as the
// oracle both are compared against.
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
	// IncrementalScan is the paper's actual §3.1 algorithm: it walks the
	// discrete threshold ladder (all values at which L_T, any a_i or any
	// b_i can change) upward from the lower bound, refreshing only the
	// processors a threshold touches in O(log n) each, evaluating the
	// move count k̂ with the count probe's own ending and running
	// PARTITION only once, at the accepted target. Each threshold
	// re-sorts the m processors by c_i and re-totals L_T and L_E in
	// O(m), which makes it slower than BinarySearch at n = 400
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
// polls ctx before every bisection probe and every batch of
// incremental-scan thresholds, returning ctx.Err() when the context is
// cancelled or its deadline expires mid-search. Every probe emits
// probe_start/removal/probe_result events and updates the core.*
// metrics in sink, and the accepted target emits a search_result
// event; a nil sink disables instrumentation.
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

	// Both search modes leave the accepted target's PARTITION run as
	// the solver's last full probe, so its assignment is materialized
	// straight from s.assign.
	var best int64
	found := false
	switch mode {
	case IncrementalScan:
		var err error
		if best, found, err = s.incrementalScan(ctx, k); err != nil {
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
	if m == IncrementalScan {
		return "incremental"
	}
	return "binary"
}
