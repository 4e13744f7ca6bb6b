// Package gap implements the Shmoys–Tardos 2-approximation for the
// generalized assignment problem, applied to load rebalancing through
// the reduction of §2 of the paper: assigning job j to its current
// machine costs 0 and to any other machine costs the job's relocation
// cost. It is the baseline the paper's algorithms are compared against
// (experiment E7).
//
// For a target makespan T the assignment LP
//
//	min Σ c_ij·x_ij   s.t.  Σ_i x_ij = 1 ∀j,  Σ_j p_j·x_ij ≤ T ∀i,  x ≥ 0
//
// is solved with the internal simplex; its optimal cost is non-increasing
// in T, so a binary search finds the smallest T whose LP cost fits the
// budget. The fractional solution is rounded with the Shmoys–Tardos slot
// construction: machine i gets ⌈Σ_j x_ij⌉ unit slots, jobs fill slots in
// decreasing size order, and a second (integral, since the slot/job graph
// is bipartite) LP picks a min-cost perfect matching of jobs to slots.
// The rounded assignment costs no more than the fractional optimum and
// has makespan < T + max job size ≤ 2T.
package gap

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/instance"
	"repro/internal/lp"
	"repro/internal/obs"
)

// ErrNoSolution is returned when even the loosest target admits no LP
// solution within budget (cannot happen for budget ≥ 0, kept defensive).
var ErrNoSolution = errors.New("gap: no feasible target")

// fractional solves the assignment LP at target t and returns the cost
// and the matrix x[j][i].
func fractional(in *instance.Instance, t int64, sink *obs.Sink) (float64, [][]float64, error) {
	n, m := in.N(), in.M
	if t < in.MaxSize() {
		return 0, nil, lp.ErrInfeasible
	}
	vars := n * m
	idx := func(j, i int) int { return j*m + i }
	p := &lp.Problem{NumVars: vars, Objective: make([]float64, vars)}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if i != in.Assign[j] {
				p.Objective[idx(j, i)] = float64(in.Jobs[j].Cost)
			}
		}
	}
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
	sol, err := lp.Solve(p, sink)
	if err != nil {
		return 0, nil, err
	}
	x := make([][]float64, n)
	for j := 0; j < n; j++ {
		x[j] = make([]float64, m)
		for i := 0; i < m; i++ {
			x[j][i] = sol.X[idx(j, i)]
		}
	}
	return sol.Value, x, nil
}

// round performs the Shmoys–Tardos slot rounding of a fractional
// assignment and returns an integral assignment.
func round(in *instance.Instance, x [][]float64, sink *obs.Sink) ([]int, error) {
	n, m := in.N(), in.M
	const tiny = 1e-7

	// Slot construction per machine: jobs by decreasing size, split
	// into unit-capacity slots.
	type edge struct {
		job, slot int
		frac      float64
		cost      float64
	}
	var edges []edge
	slotMachine := []int{}
	for i := 0; i < m; i++ {
		var jobs []int
		var total float64
		for j := 0; j < n; j++ {
			if x[j][i] > tiny {
				jobs = append(jobs, j)
				total += x[j][i]
			}
		}
		if len(jobs) == 0 {
			continue
		}
		sort.Slice(jobs, func(a, b int) bool {
			if in.Jobs[jobs[a]].Size != in.Jobs[jobs[b]].Size {
				return in.Jobs[jobs[a]].Size > in.Jobs[jobs[b]].Size
			}
			return jobs[a] < jobs[b]
		})
		slot := len(slotMachine)
		slotMachine = append(slotMachine, i)
		used := 0.0
		for _, j := range jobs {
			f := x[j][i]
			cost := 0.0
			if i != in.Assign[j] {
				cost = float64(in.Jobs[j].Cost)
			}
			for f > tiny {
				room := 1 - used
				take := math.Min(f, room)
				edges = append(edges, edge{job: j, slot: slot, frac: take, cost: cost})
				f -= take
				used += take
				if used >= 1-tiny && f > tiny {
					slot = len(slotMachine)
					slotMachine = append(slotMachine, i)
					used = 0
				}
			}
		}
	}

	// Min-cost integral matching of jobs to slots over the support
	// edges; the bipartite constraint matrix is totally unimodular, so
	// the simplex vertex is integral.
	p := &lp.Problem{NumVars: len(edges), Objective: make([]float64, len(edges))}
	for e, ed := range edges {
		p.Objective[e] = ed.cost
	}
	jobRows := make([][]float64, n)
	slotRows := make([][]float64, len(slotMachine))
	for e, ed := range edges {
		if jobRows[ed.job] == nil {
			jobRows[ed.job] = make([]float64, len(edges))
		}
		jobRows[ed.job][e] = 1
		if slotRows[ed.slot] == nil {
			slotRows[ed.slot] = make([]float64, len(edges))
		}
		slotRows[ed.slot][e] = 1
	}
	for j := 0; j < n; j++ {
		if jobRows[j] == nil {
			return nil, fmt.Errorf("gap: job %d has no fractional support", j)
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coef: jobRows[j], Rel: lp.EQ, RHS: 1})
	}
	for s := range slotMachine {
		if slotRows[s] == nil {
			continue
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coef: slotRows[s], Rel: lp.LE, RHS: 1})
	}
	sol, err := lp.Solve(p, sink)
	if err != nil {
		return nil, fmt.Errorf("gap: rounding LP: %w", err)
	}
	assign := make([]int, n)
	for j := range assign {
		assign[j] = -1
	}
	for e, v := range sol.X {
		if v > 0.5 {
			assign[edges[e].job] = slotMachine[edges[e].slot]
		}
	}
	for j, a := range assign {
		if a < 0 {
			return nil, fmt.Errorf("gap: job %d unmatched after rounding", j)
		}
	}
	return assign, nil
}

// Rebalance runs the full baseline: smallest target T whose LP cost fits
// the budget, then rounding. The result's relocation cost is at most
// budget and its makespan is at most 2·OPT(budget). Every target probed
// by the binary search emits a gap_target event, the underlying simplex
// solves feed the lp.* metrics, and the gap.* counters summarize the
// run; a nil sink disables instrumentation.
func Rebalance(in *instance.Instance, budget int64, sink *obs.Sink) (instance.Solution, error) {
	if budget < 0 {
		budget = 0
	}
	lo, hi := in.LowerBound(), in.InitialMakespan()
	if lo >= hi {
		return instance.NewSolution(in, in.Assign), nil
	}
	type attempt struct {
		t int64
		x [][]float64
	}
	var best *attempt
	// LP cost is non-increasing in T, so binary search applies; the
	// initial makespan is always feasible at cost 0.
	feasible := func(t int64) bool {
		cost, x, err := fractional(in, t, sink)
		ok := err == nil && cost <= float64(budget)+1e-6
		if sink != nil {
			sink.Count("gap.targets", 1)
			if sink.Tracing() {
				f := obs.Fields{"target": t, "feasible": ok}
				if err == nil {
					f["lp_cost"] = cost
				} else {
					f["error"] = err.Error()
				}
				sink.Emit("gap_target", f)
			}
		}
		if !ok {
			return false
		}
		best = &attempt{t: t, x: x}
		return true
	}
	if !feasible(hi) {
		// Defensive; keeping every job home costs 0.
		return instance.NewSolution(in, in.Assign), nil
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if best.t != hi {
		// Re-solve at the final target (best may hold a stale higher t).
		if !feasible(hi) {
			return instance.Solution{}, ErrNoSolution
		}
	}
	assign, err := round(in, best.x, sink)
	if err != nil {
		return instance.Solution{}, err
	}
	sol := instance.NewSolution(in, assign)
	if sol.Makespan >= in.InitialMakespan() {
		return instance.NewSolution(in, in.Assign), nil
	}
	return sol, nil
}
