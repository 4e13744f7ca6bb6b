package movemin

import (
	"repro/internal/core"
	"repro/internal/instance"
)

// Bicriteria is the positive counterpart to Theorem 5 that falls out of
// the paper's Lemma 3/4: although minimizing moves for a hard load
// target is inapproximable, relaxing the load target by 1.5 makes the
// move count optimal. Running PARTITION against the target yields a
// solution with
//
//   - makespan ≤ 1.5 · target, and
//   - moves ≤ the minimum number of moves of ANY solution with
//     makespan ≤ target (Lemma 4),
//
// whenever any such solution exists. The boolean reports feasibility of
// the target itself (target below a packing lower bound, or with more
// than m target-large jobs, is unreachable by any solution).
func Bicriteria(in *instance.Instance, target int64) (instance.Solution, int, bool) {
	r := core.Partition(in, target, nil)
	if !r.Feasible {
		return instance.Solution{}, 0, false
	}
	return r.Solution, r.Removals, true
}
