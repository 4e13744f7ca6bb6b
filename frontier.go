package rebalance

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// FrontierPoint is one point of the makespan-vs-moves tradeoff curve.
type FrontierPoint struct {
	K        int   // move budget
	Makespan int64 // M-PARTITION makespan at that budget (≤ 1.5·OPT(K))
	Moves    int   // moves actually used (≤ K)
}

// FrontierOptions tunes a frontier sweep.
type FrontierOptions struct {
	// Workers bounds the concurrency of the sweep: each budget is an
	// independent solver run, scheduled on the internal/par pool.
	// ≤ 0 means runtime.GOMAXPROCS(0); 1 forces the sequential path.
	// The returned points are identical at every worker count.
	Workers int
	// Obs threads an observability sink through every run; nil disables
	// instrumentation. The sink's tracer and metrics are shared across
	// the concurrent workers (all obs primitives are safe for concurrent
	// use), so a trace interleaves events from different budgets;
	// correlate them by the k field on search_result events.
	Obs *obs.Sink
}

// DefaultFrontierKs returns the doubling ladder of move budgets 0, 1,
// 2, 4, … plus the endpoint n — the default sweep schedule shared by
// the CLI's frontier mode and the serving layer when the caller names
// no budgets. The endpoint is always included (not only when n is a
// power of two): k = n is where the curve bottoms out at the
// unconstrained optimum, and a sweep that stops short of it reports a
// frontier that never reaches its floor.
func DefaultFrontierKs(n int) []int {
	var ks []int
	for k := 0; k < n; {
		ks = append(ks, k)
		if k == 0 {
			k = 1
		} else {
			k *= 2
		}
	}
	ks = append(ks, n)
	return ks
}

// Frontier computes the paper's central tradeoff — the best achievable
// makespan as the move budget k varies — by running M-PARTITION (the
// count-probe bisection every solve uses) at each requested budget on
// the internal/par pool (each run is independent and read-only on the
// instance). Results are returned in the order of ks regardless of
// scheduling. When ctx fires,
// in-flight runs are interrupted mid-search, pending budgets are
// skipped, and ctx.Err() is returned with nil points.
func Frontier(ctx context.Context, in *Instance, ks []int, opts FrontierOptions) ([]FrontierPoint, error) {
	points := make([]FrontierPoint, len(ks))
	err := par.Do(ctx, len(ks), opts.Workers, func(i int) error {
		sol, err := core.MPartition(ctx, in, ks[i], core.BinarySearch, opts.Obs)
		if err != nil {
			return err
		}
		points[i] = FrontierPoint{K: ks[i], Makespan: sol.Makespan, Moves: sol.Moves}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}
