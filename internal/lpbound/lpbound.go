// Package lpbound computes linear-programming lower bounds on the
// optimal makespan of a load rebalancing instance. The exact solver
// caps out around 16 jobs; the LP relaxation scales to hundreds, so the
// evaluation can report "measured / LP-bound ≤ measured / OPT" quality
// ratios at realistic sizes (experiment E13).
//
// For the k-move model, the relaxation is the assignment LP with a
// fractional move budget:
//
//	min T  s.t.  Σ_i x_ij = 1          ∀ jobs j
//	             Σ_j p_j·x_ij ≤ T      ∀ machines i
//	             Σ_j (1 − x_{j,home(j)}) ≤ k
//	             x ≥ 0
//
// whose optimum is at most OPT(k) because every integral k-move
// solution is feasible for it. The budget model replaces the last row
// with Σ_j c_j·(1 − x_{j,home(j)}) ≤ B. Since our simplex minimizes a
// linear objective over a fixed feasible set, T is handled by binary
// search over the machine-capacity right-hand side (the smallest T with
// a feasible LP); combined with integrality of job data the result is
// rounded up to the nearest integer, which remains a valid lower bound.
package lpbound

import (
	"errors"

	"repro/internal/instance"
	"repro/internal/lp"
)

// feasibleAt reports whether the relaxation admits a point at target t.
// budget < 0 selects the k-move row with limit = k, otherwise the cost
// row with limit = budget.
func feasibleAt(in *instance.Instance, t int64, moveLimit float64, useCost bool) bool {
	n, m := in.N(), in.M
	if t < in.MaxSize() {
		return false
	}
	vars := n * m
	idx := func(j, i int) int { return j*m + i }
	p := &lp.Problem{NumVars: vars, Objective: make([]float64, vars)}
	// Feasibility problem: zero objective.
	for j := 0; j < n; j++ {
		row := make([]float64, vars)
		for i := 0; i < m; i++ {
			row[idx(j, i)] = 1
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coef: row, Rel: lp.EQ, RHS: 1})
	}
	for i := 0; i < m; i++ {
		row := make([]float64, vars)
		for j := 0; j < n; j++ {
			row[idx(j, i)] = float64(in.Jobs[j].Size)
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coef: row, Rel: lp.LE, RHS: float64(t)})
	}
	// Move/cost budget: Σ w_j·(1 − x_{j,home}) ≤ limit ⇔
	// −Σ w_j·x_{j,home} ≤ limit − Σ w_j.
	row := make([]float64, vars)
	var wTotal float64
	for j := 0; j < n; j++ {
		w := 1.0
		if useCost {
			w = float64(in.Jobs[j].Cost)
		}
		wTotal += w
		row[idx(j, in.Assign[j])] = -w
	}
	p.Constraints = append(p.Constraints, lp.Constraint{Coef: row, Rel: lp.LE, RHS: moveLimit - wTotal})
	_, err := lp.Solve(p, nil)
	return err == nil
}

// ErrNoBound indicates the relaxation failed at every target (cannot
// happen for a valid instance: the initial assignment is feasible at
// the initial makespan with zero moves).
var ErrNoBound = errors.New("lpbound: relaxation infeasible at every target")

// Moves returns an integer lower bound on the optimal makespan
// achievable with at most k relocations.
func Moves(in *instance.Instance, k int) (int64, error) {
	if k < 0 {
		k = 0
	}
	return search(in, float64(k), false)
}

// Budget returns an integer lower bound on the optimal makespan
// achievable with relocation cost at most budget.
func Budget(in *instance.Instance, budget int64) (int64, error) {
	if budget < 0 {
		budget = 0
	}
	return search(in, float64(budget), true)
}

func search(in *instance.Instance, limit float64, useCost bool) (int64, error) {
	lo, hi := in.LowerBound(), in.InitialMakespan()
	if lo >= hi {
		return hi, nil
	}
	if !feasibleAt(in, hi, limit, useCost) {
		return 0, ErrNoBound
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasibleAt(in, mid, limit, useCost) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, nil
}
