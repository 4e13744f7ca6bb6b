package lp

import (
	"errors"
	"math"
	"testing"

	"repro/internal/workload"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestBasicMin(t *testing.T) {
	// min -x - y  s.t. x + y ≤ 4, x ≤ 2  → x=2, y=2, value -4.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Constraints: []Constraint{
			{Coef: []float64{1, 1}, Rel: LE, RHS: 4},
			{Coef: []float64{1, 0}, Rel: LE, RHS: 2},
		},
	}
	s, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, -4) {
		t.Fatalf("value = %g, want -4", s.Value)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min 2x + 3y  s.t. x + y = 10, x ≥ 4  → x=10? No: y free to 0:
	// x=10,y=0 gives 20; x=4,y=6 gives 26; minimum is x=10 value 20.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{2, 3},
		Constraints: []Constraint{
			{Coef: []float64{1, 1}, Rel: EQ, RHS: 10},
			{Coef: []float64{1, 0}, Rel: GE, RHS: 4},
		},
	}
	s, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, 20) || !approx(s.X[0], 10) {
		t.Fatalf("solution = %+v, want x=10 value 20", s)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coef: []float64{1}, Rel: GE, RHS: 5},
			{Coef: []float64{1}, Rel: LE, RHS: 3},
		},
	}
	if _, err := Solve(p, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{-1},
		Constraints: []Constraint{
			{Coef: []float64{1}, Rel: GE, RHS: 0},
		},
	}
	if _, err := Solve(p, nil); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x ≤ -3  ⇔  x ≥ 3; min x → 3.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coef: []float64{-1}, Rel: LE, RHS: -3},
		},
	}
	s, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, 3) {
		t.Fatalf("value = %g, want 3", s.Value)
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	// Duplicate equality rows must not break phase 1 cleanup.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coef: []float64{1, 1}, Rel: EQ, RHS: 5},
			{Coef: []float64{1, 1}, Rel: EQ, RHS: 5},
			{Coef: []float64{1, 0}, Rel: GE, RHS: 1},
		},
	}
	s, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, 5) {
		t.Fatalf("value = %g, want 5", s.Value)
	}
}

func TestInputNotMutated(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coef: []float64{-1}, Rel: LE, RHS: -3},
		},
	}
	if _, err := Solve(p, nil); err != nil {
		t.Fatal(err)
	}
	if p.Constraints[0].RHS != -3 || p.Constraints[0].Coef[0] != -1 || p.Constraints[0].Rel != LE {
		t.Fatalf("Solve mutated the input problem: %+v", p.Constraints[0])
	}
}

func TestDimensionErrors(t *testing.T) {
	if _, err := Solve(&Problem{NumVars: 2, Objective: []float64{1}}, nil); err == nil {
		t.Fatal("bad objective accepted")
	}
	p := &Problem{NumVars: 2, Objective: []float64{1, 1},
		Constraints: []Constraint{{Coef: []float64{1}, Rel: LE, RHS: 1}}}
	if _, err := Solve(p, nil); err == nil {
		t.Fatal("bad constraint accepted")
	}
}

// Transportation problems have integral vertices; the simplex optimum
// must match a brute-force integral search.
func TestTransportationIntegrality(t *testing.T) {
	rng := workload.NewRNG(31)
	for trial := 0; trial < 20; trial++ {
		// 3 jobs × 2 machines assignment LP with random costs.
		cost := make([]float64, 6)
		for i := range cost {
			cost[i] = float64(1 + rng.Intn(9))
		}
		p := &Problem{NumVars: 6, Objective: cost}
		// Each job assigned exactly once: x_{j,0} + x_{j,1} = 1.
		for j := 0; j < 3; j++ {
			row := make([]float64, 6)
			row[j*2] = 1
			row[j*2+1] = 1
			p.Constraints = append(p.Constraints, Constraint{Coef: row, Rel: EQ, RHS: 1})
		}
		s, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Optimal value is the sum of per-job minima.
		var want float64
		for j := 0; j < 3; j++ {
			want += math.Min(cost[j*2], cost[j*2+1])
		}
		if !approx(s.Value, want) {
			t.Fatalf("trial %d: value %g, want %g", trial, s.Value, want)
		}
		// Basic solution must be integral.
		for _, v := range s.X {
			if math.Abs(v-math.Round(v)) > 1e-6 {
				t.Fatalf("trial %d: fractional vertex %v", trial, s.X)
			}
		}
	}
}

func TestRandomLPsAgainstVertexEnumeration(t *testing.T) {
	// 2-variable LPs: enumerate constraint intersections to find the
	// optimum and compare.
	rng := workload.NewRNG(77)
	for trial := 0; trial < 50; trial++ {
		nc := 3 + rng.Intn(3)
		p := &Problem{NumVars: 2, Objective: []float64{
			float64(rng.Intn(11) - 5), float64(rng.Intn(11) - 5)}}
		for i := 0; i < nc; i++ {
			p.Constraints = append(p.Constraints, Constraint{
				Coef: []float64{float64(1 + rng.Intn(5)), float64(1 + rng.Intn(5))},
				Rel:  LE, RHS: float64(5 + rng.Intn(20)),
			})
		}
		s, err := Solve(p, nil)
		if errors.Is(err, ErrUnbounded) {
			// Possible when the objective has a negative coefficient and
			// no binding constraint — but all coefficients are positive
			// here, so the feasible region is bounded.
			t.Fatalf("trial %d: unexpected unbounded", trial)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Enumerate candidate vertices: axes intersections and pairwise
		// constraint intersections.
		best := math.Inf(1)
		check := func(x, y float64) {
			if x < -1e-9 || y < -1e-9 {
				return
			}
			for _, c := range p.Constraints {
				if c.Coef[0]*x+c.Coef[1]*y > c.RHS+1e-6 {
					return
				}
			}
			v := p.Objective[0]*x + p.Objective[1]*y
			if v < best {
				best = v
			}
		}
		check(0, 0)
		for _, c := range p.Constraints {
			check(c.RHS/c.Coef[0], 0)
			check(0, c.RHS/c.Coef[1])
		}
		for i := 0; i < nc; i++ {
			for j := i + 1; j < nc; j++ {
				a, b := p.Constraints[i], p.Constraints[j]
				det := a.Coef[0]*b.Coef[1] - a.Coef[1]*b.Coef[0]
				if math.Abs(det) < 1e-12 {
					continue
				}
				x := (a.RHS*b.Coef[1] - a.Coef[1]*b.RHS) / det
				y := (a.Coef[0]*b.RHS - a.RHS*b.Coef[0]) / det
				check(x, y)
			}
		}
		if !approx(s.Value, best) {
			t.Fatalf("trial %d: simplex %g, enumeration %g", trial, s.Value, best)
		}
	}
}
