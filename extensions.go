package rebalance

import (
	"context"

	"repro/internal/conflict"
	"repro/internal/constrained"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gap"
	"repro/internal/hardness"
	"repro/internal/movemin"
	"repro/internal/session"
)

// Extensions beyond the core k-move / budget solvers: the §5 problem
// variants with their reduction gadgets, the Lemma 4 bicriteria result,
// the M-PARTITION ablation switch, and an online balancer for the
// dynamic setting the paper's introduction motivates.

// SearchMode selects how M-PARTITION locates its target value; see the
// DESIGN.md §4 discussion of the two §3.1 strategies.
type SearchMode = core.SearchMode

// M-PARTITION search strategies.
const (
	BinarySearch    = core.BinarySearch
	ThresholdScan   = core.ThresholdScan
	IncrementalScan = core.IncrementalScan
)

// PartitionWithMode is Partition with an explicit §3.1 search strategy
// (BinarySearch is the default used by Partition).
func PartitionWithMode(in *Instance, k int, mode SearchMode) Solution {
	// The background context never fires, so the error is always nil.
	sol, _ := core.MPartition(context.Background(), in, k, mode, nil)
	return sol
}

// MoveMinimization

// MinMoves returns the minimum number of relocations reaching makespan
// ≤ target (the §5 move minimization problem), solved exactly;
// exponential, small instances only. Theorem 5 shows no polynomial
// approximation exists.
func MinMoves(in *Instance, target int64) (int, Solution, error) {
	return movemin.Exact(context.Background(), in, target, exact.Limits{})
}

// MinMovesBicriteria is the Lemma 4 positive result: a solution with
// makespan ≤ 1.5·target whose move count does not exceed the minimum
// moves of any solution with makespan ≤ target. The boolean reports
// whether the target passes the packing lower bounds.
func MinMovesBicriteria(in *Instance, target int64) (Solution, int, bool) {
	return movemin.Bicriteria(in, target)
}

// MoveMinGadget builds the Theorem 5 reduction: a 2-processor instance
// and load target that are feasible iff the weights split into two
// equal halves.
func MoveMinGadget(weights []int64) (*Instance, int64) {
	return movemin.FromPartition(weights)
}

// Constrained Load Rebalancing (§5, Corollary 1)

// ConstrainedInstance couples an instance with per-job allowed machine
// sets (nil entry = unrestricted).
type ConstrainedInstance = constrained.Instance

// ConstrainedExact solves constrained load rebalancing optimally with
// at most k moves; exponential, small instances only.
func ConstrainedExact(ci *ConstrainedInstance, k int) (Solution, error) {
	return constrained.Exact(context.Background(), ci, k, 0)
}

// ConstrainedGreedy is the LPT heuristic honoring allowed sets.
func ConstrainedGreedy(ci *ConstrainedInstance) Solution {
	return constrained.Greedy(ci)
}

// ConstrainedBaseline is the Shmoys–Tardos 2-approximation for the
// constrained problem — the best known polynomial upper bound (§5).
func ConstrainedBaseline(in *Instance, allowed [][]int, budget int64) (Solution, error) {
	return gap.RebalanceConstrained(in, allowed, budget)
}

// Conflict Scheduling (§5, Theorem 7)

// ConflictInstance couples an instance with a conflict graph: listed
// job pairs may not share a processor.
type ConflictInstance = conflict.Instance

// ConflictFeasible searches for any conflict-respecting assignment.
func ConflictFeasible(ci *ConflictInstance) ([]int, bool) {
	return conflict.Feasible(ci, 0)
}

// ConflictMinMakespan finds the optimal conflict-respecting makespan;
// exponential, small instances only.
func ConflictMinMakespan(ci *ConflictInstance) (Solution, error) {
	return conflict.MinMakespan(context.Background(), ci, 0)
}

// 3-dimensional matching machinery behind the §5 reductions.

// ThreeDM is a 3-dimensional matching instance.
type ThreeDM = hardness.ThreeDM

// ThreeDMTriple is one triple of a ThreeDM family.
type ThreeDMTriple = hardness.Triple

// ConstrainedGadget builds the Theorem 6 / Corollary 1 reduction from a
// 3DM instance: the returned target makespan (2) is achievable iff the
// 3DM has a perfect matching.
func ConstrainedGadget(d *ThreeDM) (*ConstrainedInstance, int64, error) {
	return constrained.FromThreeDM(d)
}

// ConflictGadget builds the Theorem 7 reduction from a 3DM instance: a
// conflict-respecting assignment exists iff the 3DM has a perfect
// matching.
func ConflictGadget(d *ThreeDM) (*ConflictInstance, error) {
	return conflict.FromThreeDM(d)
}

// TwoCostGAP is the Theorem 6 gadget type: a generalized-assignment
// instance with two-valued job costs whose (makespan 2, budget) decision
// encodes 3-dimensional matching.
type TwoCostGAP = hardness.TwoCostGAP

// TwoCostGadget builds the Theorem 6 reduction from a 3DM instance with
// cheap cost p and expensive cost q.
func TwoCostGadget(d *ThreeDM, p, q int64) (*TwoCostGAP, error) {
	return hardness.NewTwoCostGAP(d, p, q)
}

// Online balancing (dynamic loads, the intro's motivating regime).

// Balancer maintains a live assignment under job arrival, growth and
// departure, with bounded-move rebalancing on demand: Apply takes one
// BalancerDelta, Rebalance(ctx, k) migrates at most k jobs with the
// M-PARTITION guarantee, and the state is kept warm between calls. It
// is the session the daemon's /v1/session endpoints serve.
type Balancer = session.Session

// BalancerDelta is one state change applied by Balancer.Apply.
type BalancerDelta = session.Delta

// BalancerMove is one migration produced by Balancer.Rebalance.
type BalancerMove = session.Move

// BalancerDelta kinds.
const (
	Arrive    = session.OpArrive    // job arrives (Proc -1: least-loaded processor)
	Depart    = session.OpDepart    // job departs
	Resize    = session.OpResize    // job's size changes
	ProcAdd   = session.OpProcAdd   // one more processor
	ProcDrain = session.OpProcDrain // processor Proc is emptied and removed
)

// NewBalancer creates an online balancer over m processors.
func NewBalancer(m int) (*Balancer, error) { return session.New(session.Config{M: m}) }
