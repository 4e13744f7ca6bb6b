package engine

import (
	"context"

	"repro/internal/conflict"
	"repro/internal/constrained"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gap"
	"repro/internal/greedy"
	"repro/internal/instance"
	"repro/internal/ptas"
	"repro/internal/scheduling"
)

// This file registers every algorithm the repository implements under
// the name the CLI exposes. The specs are the single source of truth
// for dispatch, flag validation, usage text, `rebalance -list`, and the
// README tables.

func init() {
	Register(Spec{
		Name:      "greedy",
		Summary:   "§2 GREEDY, Graham's heuristic under a move budget",
		Guarantee: "2-1/m",
		Caps:      Caps{K: true},
		Run: func(_ context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			return greedy.Rebalance(in, p.K, greedy.OrderLargestFirst, p.Obs), nil
		},
	})
	Register(Spec{
		Name:      "mpartition",
		Summary:   "§3.1 M-PARTITION, binary search over PARTITION probes",
		Guarantee: "1.5",
		Caps:      Caps{K: true},
		Run: func(ctx context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			return core.MPartition(ctx, in, p.K, core.BinarySearch, p.Obs)
		},
	})
	Register(Spec{
		Name:      "budget",
		Summary:   "§3.2 PARTITION under arbitrary relocation costs",
		Guarantee: "1.5(1+eps)",
		Caps:      Caps{Budget: true},
		Run: func(ctx context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			return core.PartitionBudget(ctx, in, p.Budget, core.BudgetOptions{}, p.Obs)
		},
	})
	Register(Spec{
		Name:      "ptas",
		Summary:   "§4 approximation scheme over the budget model",
		Guarantee: "1+eps",
		Caps:      Caps{Budget: true, Eps: true, Exponential: true},
		Run: func(ctx context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			return ptas.Solve(ctx, in, p.Budget, ptas.Options{Eps: p.Eps, Obs: p.Obs})
		},
	})
	Register(Spec{
		Name:      "exact",
		Summary:   "branch-and-bound optimum for the k-move model",
		Guarantee: "opt",
		Caps:      Caps{K: true, Exponential: true},
		Run: func(ctx context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			return exact.Solve(ctx, in, p.K, exactLimits(ctx))
		},
	})
	Register(Spec{
		Name:      "exact-budget",
		Summary:   "branch-and-bound optimum for the budget model",
		Guarantee: "opt",
		Caps:      Caps{Budget: true, Exponential: true},
		Run: func(ctx context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			return exact.SolveBudget(ctx, in, p.Budget, exactLimits(ctx))
		},
	})
	Register(Spec{
		Name:      "gap",
		Summary:   "Shmoys-Tardos generalized-assignment rounding",
		Guarantee: "2",
		Caps:      Caps{Budget: true},
		Run: func(_ context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			return gap.Rebalance(in, p.Budget, p.Obs)
		},
	})
	Register(Spec{
		Name:      "lpt",
		Summary:   "k = n baseline: Graham's LPT from scratch",
		Guarantee: "4/3-1/3m",
		Run: func(_ context.Context, in *instance.Instance, _ Params) (instance.Solution, error) {
			assign, _ := scheduling.LPT(scheduling.FromInstance(in), in.M)
			return instance.NewSolution(in, assign), nil
		},
	})
	Register(Spec{
		Name:      "multifit",
		Summary:   "k = n baseline: MULTIFIT from scratch",
		Guarantee: "13/11",
		Run: func(_ context.Context, in *instance.Instance, _ Params) (instance.Solution, error) {
			assign, _ := scheduling.Multifit(scheduling.FromInstance(in), in.M, 0)
			return instance.NewSolution(in, assign), nil
		},
	})
	Register(Spec{
		Name:      "hs-ptas",
		Summary:   "k = n baseline: Hochbaum-Shmoys dual PTAS from scratch",
		Guarantee: "1+eps",
		Caps:      Caps{Eps: true},
		Run: func(_ context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			assign, _ := scheduling.DualPTAS(scheduling.FromInstance(in), in.M, p.Eps)
			return instance.NewSolution(in, assign), nil
		},
	})
	Register(Spec{
		Name:      "constrained",
		Summary:   "§5 allowed-machine sets, exact branch and bound",
		Guarantee: "opt",
		Caps:      Caps{K: true, NeedsExtended: true, Exponential: true},
		Run: func(ctx context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			ci := &constrained.Instance{Base: in, Allowed: p.Allowed}
			if err := ci.Validate(); err != nil {
				return instance.Solution{}, err
			}
			return constrained.Exact(ctx, ci, p.K, nodeBudget(ctx))
		},
	})
	Register(Spec{
		Name:      "conflict",
		Summary:   "§5 conflict graph, exact minimum makespan",
		Guarantee: "opt",
		Caps:      Caps{NeedsExtended: true, Exponential: true},
		Run: func(ctx context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
			ci := &conflict.Instance{Base: in, Conflicts: p.Conflicts}
			return conflict.MinMakespan(ctx, ci, nodeBudget(ctx))
		},
	})
	Register(Spec{
		Name:      "frontier",
		Summary:   "makespan-vs-k tradeoff sweep via M-PARTITION",
		Guarantee: "1.5/point",
		Kind:      KindSweep,
		Caps:      Caps{Workers: true},
	})
}

// exactLimits sizes the branch-and-bound safety rails to the caller's
// cancellation story: with a deadline on the context, wall-clock time is
// the binding resource, so the job-count and node-count rails that exist
// to keep an *unbounded* search from running away are lifted. Without a
// deadline the package defaults stand.
func exactLimits(ctx context.Context) exact.Limits {
	if _, ok := ctx.Deadline(); ok {
		return exact.Limits{MaxJobs: 1 << 20, MaxNodes: 1 << 62}
	}
	return exact.Limits{}
}

// nodeBudget is the same policy for the §5 exact solvers, whose rail is
// a single node cap (0 means the package default).
func nodeBudget(ctx context.Context) int64 {
	if _, ok := ctx.Deadline(); ok {
		return 1 << 62
	}
	return 0
}
