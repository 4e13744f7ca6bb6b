package gap

import (
	"sort"

	"repro/internal/instance"
	"repro/internal/lp"
)

// RebalanceConstrained is the 2-approximation for Constrained Load
// Rebalancing that §5 of the paper cites as the best known upper bound
// ("the 2-approximation by Shmoys and Tardos"): each job may only be
// placed on machines in its allowed set (nil = unrestricted). The
// returned solution respects the allowed sets, costs at most budget,
// and has makespan at most 2·OPT(budget) over allowed assignments.
//
// The construction is the same parametric LP + slot rounding as
// Rebalance, with variables restricted to allowed (job, machine) pairs.
func RebalanceConstrained(in *instance.Instance, allowed [][]int, budget int64) (instance.Solution, error) {
	if budget < 0 {
		budget = 0
	}
	allowedSet := make([]map[int]bool, in.N())
	for j := 0; j < in.N(); j++ {
		if j < len(allowed) && allowed[j] != nil {
			allowedSet[j] = make(map[int]bool, len(allowed[j]))
			for _, p := range allowed[j] {
				allowedSet[j][p] = true
			}
		}
	}
	permitted := func(j, i int) bool {
		return allowedSet[j] == nil || allowedSet[j][i]
	}

	lo, hi := in.LowerBound(), in.InitialMakespan()
	var bestX [][]float64
	feasible := func(t int64) bool {
		cost, x, err := fractionalConstrained(in, permitted, t)
		if err != nil || cost > float64(budget)+1e-6 {
			return false
		}
		bestX = x
		return true
	}
	if !feasible(hi) {
		// The initial assignment is legal (Validate guarantees jobs
		// start on allowed machines in the constrained package), so a
		// zero-cost LP solution exists at the initial makespan; failure
		// means the caller passed sets the initial assignment violates.
		// Fall back to the initial assignment.
		return instance.NewSolution(in, in.Assign), nil
	}
	final := hi
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi, final = mid, mid
		} else {
			lo = mid + 1
		}
	}
	if final != hi || bestX == nil {
		if !feasible(hi) {
			return instance.NewSolution(in, in.Assign), nil
		}
	}
	// Refresh in case the last probe was infeasible.
	if !feasible(hi) {
		return instance.NewSolution(in, in.Assign), nil
	}
	assign, err := round(in, bestX, nil)
	if err != nil {
		return instance.Solution{}, err
	}
	sol := instance.NewSolution(in, assign)
	if sol.Makespan >= in.InitialMakespan() {
		return instance.NewSolution(in, in.Assign), nil
	}
	return sol, nil
}

// fractionalConstrained solves the assignment LP with variables only
// for permitted (job, machine) pairs whose size fits t.
func fractionalConstrained(in *instance.Instance, permitted func(j, i int) bool, t int64) (float64, [][]float64, error) {
	n, m := in.N(), in.M
	if t < in.MaxSize() {
		return 0, nil, lp.ErrInfeasible
	}
	// Compact variable indexing over permitted pairs.
	type pair struct{ j, i int }
	var pairs []pair
	index := make(map[pair]int)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if permitted(j, i) {
				index[pair{j, i}] = len(pairs)
				pairs = append(pairs, pair{j, i})
			}
		}
	}
	p := &lp.Problem{NumVars: len(pairs), Objective: make([]float64, len(pairs))}
	for v, pr := range pairs {
		if pr.i != in.Assign[pr.j] {
			p.Objective[v] = float64(in.Jobs[pr.j].Cost)
		}
	}
	for j := 0; j < n; j++ {
		row := make([]float64, len(pairs))
		any := false
		for i := 0; i < m; i++ {
			if v, ok := index[pair{j, i}]; ok {
				row[v] = 1
				any = true
			}
		}
		if !any {
			return 0, nil, lp.ErrInfeasible
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coef: row, Rel: lp.EQ, RHS: 1})
	}
	for i := 0; i < m; i++ {
		row := make([]float64, len(pairs))
		for j := 0; j < n; j++ {
			if v, ok := index[pair{j, i}]; ok {
				row[v] = float64(in.Jobs[j].Size)
			}
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coef: row, Rel: lp.LE, RHS: float64(t)})
	}
	sol, err := lp.Solve(p, nil)
	if err != nil {
		return 0, nil, err
	}
	x := make([][]float64, n)
	for j := range x {
		x[j] = make([]float64, m)
	}
	for v, pr := range pairs {
		x[pr.j][pr.i] = sol.X[v]
	}
	return sol.Value, x, nil
}

// SupportMachines lists, per job, the machines carrying fractional mass
// in x (used by tests to confirm the rounding can only place jobs on
// machines the LP already used, hence allowed ones).
func SupportMachines(x [][]float64) [][]int {
	out := make([][]int, len(x))
	for j := range x {
		for i, v := range x[j] {
			if v > 1e-7 {
				out[j] = append(out[j], i)
			}
		}
		sort.Ints(out[j])
	}
	return out
}
