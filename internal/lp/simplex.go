// Package lp is a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  A_i·x (≤ | = | ≥) b_i    for each row i
//	            x ≥ 0
//
// built only on the standard library. It is the substrate for the
// Shmoys–Tardos generalized-assignment baseline (internal/gap): both the
// parametric assignment LP and the integral rounding LP are solved here.
// Bland's rule guarantees termination; the implementation is dense and
// intended for the mid-sized instances of the experiment suite.
package lp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// Relation is a constraint sense.
type Relation int

const (
	LE Relation = iota // ≤
	EQ                 // =
	GE                 // ≥
)

// Constraint is one row: Coef·x Rel RHS.
type Constraint struct {
	Coef []float64
	Rel  Relation
	RHS  float64
}

// Problem is a minimization LP over non-negative variables.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars
	Constraints []Constraint
}

// Errors returned by Solve.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
)

const eps = 1e-9

// Solution is an optimal basic solution.
type Solution struct {
	X     []float64
	Value float64
}

// Solve runs two-phase simplex and returns an optimal basic solution,
// ErrInfeasible, or ErrUnbounded. Each call updates the lp.* metrics
// (solves, pivots per phase) and emits one lp_solve event into sink; a
// nil sink disables instrumentation.
func Solve(p *Problem, sink *obs.Sink) (*Solution, error) {
	sol, ph1, ph2, err := solve(p)
	if sink != nil {
		sink.Count("lp.solves", 1)
		sink.Count("lp.pivots", int64(ph1+ph2))
		sink.Observe("lp.solve_pivots", int64(ph1+ph2))
		if sink.Tracing() {
			f := obs.Fields{
				"vars": p.NumVars, "rows": len(p.Constraints),
				"phase1_pivots": ph1, "phase2_pivots": ph2,
			}
			if err != nil {
				f["error"] = err.Error()
			} else {
				f["value"] = sol.Value
			}
			sink.Emit("lp_solve", f)
		}
	}
	return sol, err
}

// solve is the two-phase core, additionally reporting the pivot counts
// of each phase.
func solve(p *Problem) (_ *Solution, phase1, phase2 int, _ error) {
	if len(p.Objective) != p.NumVars {
		return nil, 0, 0, fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.Objective), p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coef) != p.NumVars {
			return nil, 0, 0, fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.Coef), p.NumVars)
		}
	}

	m := len(p.Constraints)
	n := p.NumVars

	// Standard form: add one slack (≤), surplus (≥) and artificials for
	// = and ≥ rows (and for ≤ rows with negative RHS after negation).
	// Column layout: [original | slack/surplus | artificial].
	type rowInfo struct {
		coef []float64
		rhs  float64
	}
	rows := make([]rowInfo, m)
	senses := make([]Relation, m)
	extra := 0 // slack+surplus columns
	for i, c := range p.Constraints {
		coef := append([]float64(nil), c.Coef...)
		rhs := c.RHS
		rel := c.Rel
		if rhs < 0 {
			for j := range coef {
				coef[j] = -coef[j]
			}
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows[i] = rowInfo{coef: coef, rhs: rhs}
		senses[i] = rel
		if rel != EQ {
			extra++
		}
	}

	total := n + extra + m // artificials: one per row (unused ones cost nothing)
	tab := make([][]float64, m+1)
	for i := range tab {
		tab[i] = make([]float64, total+1)
	}
	basis := make([]int, m)

	se := 0
	for i := 0; i < m; i++ {
		copy(tab[i], rows[i].coef)
		switch senses[i] {
		case LE:
			tab[i][n+se] = 1
			basis[i] = n + se
			se++
		case GE:
			tab[i][n+se] = -1
			se++
			tab[i][n+extra+i] = 1
			basis[i] = n + extra + i
		case EQ:
			tab[i][n+extra+i] = 1
			basis[i] = n + extra + i
		}
		tab[i][total] = rows[i].rhs
	}

	// Phase 1: minimize the sum of artificial variables. Reduced costs
	// start at the artificial cost vector (1 on artificial columns) with
	// the rows of basic artificials subtracted so basic columns read 0.
	obj := tab[m]
	for j := 0; j <= total; j++ {
		obj[j] = 0
	}
	for j := n + extra; j < total; j++ {
		obj[j] = 1
	}
	for i := 0; i < m; i++ {
		if basis[i] >= n+extra {
			for j := 0; j <= total; j++ {
				obj[j] -= tab[i][j]
			}
		}
	}
	var err error
	if phase1, err = pivotLoop(tab, basis, total); err != nil {
		return nil, phase1, 0, err
	}
	if -tab[m][total] > 1e-6 {
		return nil, phase1, 0, ErrInfeasible
	}
	// Drive any remaining artificial out of the basis (degenerate rows).
	for i := 0; i < m; i++ {
		if basis[i] < n+extra {
			continue
		}
		pivoted := false
		for j := 0; j < n+extra; j++ {
			if math.Abs(tab[i][j]) > eps {
				pivot(tab, basis, i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// The row is all-zero over real variables: redundant;
			// the artificial stays basic at value 0, which is harmless
			// as long as it never re-enters (phase 2 never selects
			// artificial columns).
			_ = pivoted
		}
	}

	// Phase 2: restore the real objective over the current basis.
	for j := 0; j <= total; j++ {
		obj[j] = 0
	}
	for j := 0; j < n; j++ {
		obj[j] = p.Objective[j]
	}
	for i := 0; i < m; i++ {
		if bj := basis[i]; bj < total && math.Abs(obj[bj]) > 0 {
			f := obj[bj]
			for j := 0; j <= total; j++ {
				obj[j] -= f * tab[i][j]
			}
		}
	}
	if phase2, err = pivotLoopBounded(tab, basis, total, n+extra); err != nil {
		return nil, phase1, phase2, err
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = tab[i][total]
		}
	}
	var val float64
	for j := 0; j < n; j++ {
		val += p.Objective[j] * x[j]
	}
	return &Solution{X: x, Value: val}, phase1, phase2, nil
}

// pivotLoop runs simplex iterations over all columns (phase 1) and
// reports the number of pivots performed.
func pivotLoop(tab [][]float64, basis []int, total int) (int, error) {
	return pivotLoopBounded(tab, basis, total, total)
}

// pivotLoopBounded runs simplex iterations considering only the first
// limit columns for entering (phase 2 excludes artificial columns) and
// reports the number of pivots performed.
func pivotLoopBounded(tab [][]float64, basis []int, total, limit int) (int, error) {
	m := len(basis)
	obj := tab[m]
	for iter := 0; ; iter++ {
		if iter > 200000 {
			return iter, errors.New("lp: iteration limit exceeded")
		}
		// Bland's rule: first column with negative reduced cost.
		col := -1
		for j := 0; j < limit; j++ {
			if obj[j] < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			return iter, nil
		}
		// Ratio test, ties broken by smallest basis index (Bland).
		row := -1
		var best float64
		for i := 0; i < m; i++ {
			if tab[i][col] > eps {
				r := tab[i][total] / tab[i][col]
				if row < 0 || r < best-eps || (r < best+eps && basis[i] < basis[row]) {
					row, best = i, r
				}
			}
		}
		if row < 0 {
			return iter, ErrUnbounded
		}
		pivot(tab, basis, row, col)
	}
}

// pivot performs a full tableau pivot on (row, col).
func pivot(tab [][]float64, basis []int, row, col int) {
	total := len(tab[row]) - 1
	pv := tab[row][col]
	for j := 0; j <= total; j++ {
		tab[row][j] /= pv
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if math.Abs(f) <= eps {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[row][j]
		}
	}
	basis[row] = col
}
