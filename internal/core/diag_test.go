package core

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/workload"
)

func TestResultDiagnostics(t *testing.T) {
	// Processor 0: large jobs 7, 6 (target 10 ⇒ large iff size > 5) and
	// small 2; processor 1: large 8; processor 2: smalls 3, 3.
	in := instance.MustNew(3,
		[]int64{7, 6, 2, 8, 3, 3},
		nil,
		[]int{0, 0, 0, 1, 2, 2})
	r := Partition(in, 10, nil)
	if !r.Feasible {
		t.Fatal("feasible target rejected")
	}
	if r.LargeTotal != 3 {
		t.Fatalf("L_T = %d, want 3", r.LargeTotal)
	}
	if r.LargeExtra != 1 {
		t.Fatalf("L_E = %d, want 1 (jobs 7 and 6 share processor 0)", r.LargeExtra)
	}
	if len(r.Selected) != r.LargeTotal {
		t.Fatalf("|Selected| = %d, want L_T = %d", len(r.Selected), r.LargeTotal)
	}
	// Selected indices must be valid, sorted and unique.
	for i, p := range r.Selected {
		if p < 0 || p >= in.M {
			t.Fatalf("selected processor %d out of range", p)
		}
		if i > 0 && r.Selected[i] <= r.Selected[i-1] {
			t.Fatalf("Selected not strictly increasing: %v", r.Selected)
		}
	}
}

func TestDiagnosticsLargeCountMatchesBrute(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		in := workload.Generate(workload.Config{
			N: 30, M: 5, MaxSize: 50, Sizes: workload.SizeBimodal,
			Placement: workload.PlaceRandom, Seed: seed,
		})
		target := in.InitialMakespan()
		r := Partition(in, target, nil)
		if !r.Feasible {
			t.Fatalf("seed %d: initial makespan infeasible", seed)
		}
		brute := 0
		for _, j := range in.Jobs {
			if 2*j.Size > target {
				brute++
			}
		}
		if r.LargeTotal != brute {
			t.Fatalf("seed %d: L_T = %d, brute count %d", seed, r.LargeTotal, brute)
		}
	}
}

func TestSolverReuseMatchesFreshRuns(t *testing.T) {
	// The prepared solver must be probe-order independent: running many
	// targets on one solver equals fresh Partition calls.
	in := workload.Generate(workload.Config{
		N: 40, M: 4, MaxSize: 60, Placement: workload.PlaceSkewed, Seed: 9,
	})
	s := newSolver(in, nil)
	for v := in.LowerBound(); v <= in.InitialMakespan(); v += 7 {
		a := s.run(v)
		b := Partition(in, v, nil)
		if a.Feasible != b.Feasible || a.Removals != b.Removals {
			t.Fatalf("v=%d: reuse (%v,%d) != fresh (%v,%d)",
				v, a.Feasible, a.Removals, b.Feasible, b.Removals)
		}
		if a.Feasible && a.Solution.Makespan != b.Solution.Makespan {
			t.Fatalf("v=%d: makespans differ %d vs %d", v, a.Solution.Makespan, b.Solution.Makespan)
		}
	}
}
