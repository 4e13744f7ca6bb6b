// Package rebalance is a complete implementation of the algorithms in
// "The Load Rebalancing Problem" (Aggarwal, Motwani, Zhu — SPAA 2003):
// given jobs already assigned to processors, relocate at most k jobs
// (or jobs of total relocation cost at most a budget B) to minimize the
// makespan.
//
// The package exposes every algorithm the paper develops or cites:
//
//   - Greedy — the §2 variant of Graham's heuristic, a tight (2 − 1/m)-
//     approximation in O(n log n).
//   - Partition / PartitionBudget — the §3 PARTITION family: a
//     1.5-approximation for the k-move model (M-PARTITION, no knowledge
//     of OPT required) and its §3.2 extension to arbitrary relocation
//     costs under a budget.
//   - PTAS — the §4 approximation scheme: (1+ε)·OPT at cost ≤ B, for
//     small instances and moderate ε.
//   - Exact — branch-and-bound optimum for small instances.
//   - GAPBaseline — the Shmoys–Tardos generalized-assignment rounding
//     the paper compares against (2-approximation).
//
// Instances are built with New or generated with the Workload helpers;
// every solver returns a Solution whose metrics are recomputed from the
// returned assignment, and Check verifies any solution independently.
package rebalance

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gap"
	"repro/internal/greedy"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/ptas"
	"repro/internal/verify"
)

// Job is a unit of work: a size (its load contribution) and the cost of
// relocating it away from its current processor.
type Job = instance.Job

// Instance is a load rebalancing instance: m processors, jobs, and the
// initial assignment.
type Instance = instance.Instance

// Solution is an assignment together with metrics recomputed over it.
type Solution = instance.Solution

// ErrInfeasible is returned when no solution satisfies the constraints.
var ErrInfeasible = instance.ErrInfeasible

// New builds a validated instance from job sizes, optional relocation
// costs (nil means unit costs), and the initial assignment.
func New(m int, sizes, costs []int64, assign []int) (*Instance, error) {
	return instance.New(m, sizes, costs, assign)
}

// MustNew is New, panicking on error; for literals in tests and examples.
func MustNew(m int, sizes, costs []int64, assign []int) *Instance {
	return instance.MustNew(m, sizes, costs, assign)
}

// GreedyOrder selects the placement order of GREEDY's second step; see
// the paper's Theorem 1 for why it matters.
type GreedyOrder = greedy.Order

// Placement orders for Greedy.
const (
	OrderRemoval       = greedy.OrderRemoval
	OrderLargestFirst  = greedy.OrderLargestFirst
	OrderSmallestFirst = greedy.OrderSmallestFirst
)

// Greedy runs the §2 GREEDY algorithm with move budget k: a tight
// (2 − 1/m)-approximation in O((n+k) log n) time.
func Greedy(in *Instance, k int) Solution {
	return greedy.Rebalance(in, k, greedy.OrderLargestFirst, nil)
}

// GreedyWithOrder is Greedy with an explicit Step 2 placement order.
func GreedyWithOrder(in *Instance, k int, order GreedyOrder) Solution {
	return greedy.Rebalance(in, k, order, nil)
}

// Partition runs §3.1 M-PARTITION with move budget k: a 1.5-approximation
// of the optimal makespan achievable with at most k moves, in
// O(n log n · log(makespan)) time. The returned solution never relocates
// more than k jobs.
func Partition(in *Instance, k int) Solution {
	// The background context never fires, so the error is always nil.
	sol, _ := core.MPartition(context.Background(), in, k, core.BinarySearch, nil)
	return sol
}

// PartitionAt runs one §3 PARTITION pass against an explicit target
// value (a known or guessed OPT), returning feasibility, the removal
// count, and the solution.
func PartitionAt(in *Instance, target int64) core.Result {
	return core.Partition(in, target, nil)
}

// PartitionBudget runs the §3.2 arbitrary-cost variant: relocation cost
// at most budget, makespan at most 1.5·(1+ε)·OPT(budget) where ε is the
// knapsack relaxation (0 whenever the exact knapsack DP is affordable).
func PartitionBudget(in *Instance, budget int64) Solution {
	// The background context never fires, so the error is always nil.
	sol, _ := core.PartitionBudget(context.Background(), in, budget, core.BudgetOptions{}, nil)
	return sol
}

// PTASOptions tunes the §4 approximation scheme.
type PTASOptions = ptas.Options

// PTAS runs the §4 approximation scheme: relocation cost at most budget
// and makespan at most (1+ε)·OPT(budget). Exponential in 1/ε; intended
// for small instances (see Options.MaxJobs). Bound the run with
// Solve(ctx, "ptas", …) when a deadline is needed.
func PTAS(in *Instance, budget int64, opts PTASOptions) (Solution, error) {
	return ptas.Solve(context.Background(), in, budget, opts)
}

// Exact solves the k-move problem optimally by branch and bound;
// exponential, intended for small instances. Bound the run with
// Solve(ctx, "exact", …) when a deadline is needed.
func Exact(in *Instance, k int) (Solution, error) {
	return engine.Solve(context.Background(), "exact", in, engine.Params{K: k})
}

// ExactBudget solves the budget problem optimally by branch and bound.
func ExactBudget(in *Instance, budget int64) (Solution, error) {
	return engine.Solve(context.Background(), "exact-budget", in, engine.Params{Budget: budget})
}

// GAPBaseline runs the Shmoys–Tardos 2-approximation through the §2
// reduction to generalized assignment: relocation cost at most budget,
// makespan at most 2·OPT(budget).
func GAPBaseline(in *Instance, budget int64) (Solution, error) {
	return gap.Rebalance(in, budget, nil)
}

// Observability (see internal/obs and DESIGN.md §"Observability"): a
// Sink collects named counters/gauges/histograms and optionally streams
// structured events through a Tracer; pass it to Solve as
// SolverParams.Obs. A nil Sink disables instrumentation at the cost of
// one nil check per probe.
type (
	// Sink bundles a metric registry with an optional tracer.
	Sink = obs.Sink
	// Tracer receives structured solver events.
	Tracer = obs.Tracer
	// Snapshot is a frozen, JSON-serializable view of a Sink's metrics.
	Snapshot = obs.Snapshot
)

// NewSink returns a metrics-only observability sink.
func NewSink() *Sink { return obs.New() }

// NewTracingSink returns a sink that also streams JSON Lines events to
// w (one object per event; see DESIGN.md for the event taxonomy). Call
// TracerErr on the returned tracer after the run to surface write
// errors.
func NewTracingSink(w io.Writer) (*Sink, *obs.JSONLTracer) {
	tr := obs.NewJSONL(w)
	return obs.NewTracing(tr), tr
}

// Check independently verifies a solution against its instance,
// recomputing the makespan, move count and move cost.
func Check(in *Instance, sol Solution) (verify.Report, error) {
	return verify.Solution(in, sol.Assign)
}

// CheckMoves verifies a solution and its k-move constraint.
func CheckMoves(in *Instance, sol Solution, k int) error {
	_, err := verify.WithinMoves(in, sol.Assign, k)
	return err
}

// CheckBudget verifies a solution and its cost budget.
func CheckBudget(in *Instance, sol Solution, budget int64) error {
	_, err := verify.WithinBudget(in, sol.Assign, budget)
	return err
}
