package core

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/workload"
)

// Fact 1 of the paper: in any solution PARTITION produces at a feasible
// target, no processor holds two target-large jobs.
func TestFact1AtMostOneLargePerProcessor(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		in := workload.Generate(workload.Config{
			N: 30, M: 5, MaxSize: 60, Sizes: workload.SizeBimodal,
			Placement: workload.PlaceRandom, Seed: seed,
		})
		for v := in.LowerBound(); v <= in.InitialMakespan(); v += (in.InitialMakespan()-in.LowerBound())/9 + 1 {
			r := Partition(in, v, nil)
			if !r.Feasible {
				continue
			}
			largeOn := make([]int, in.M)
			for j, p := range r.Solution.Assign {
				if 2*in.Jobs[j].Size > v {
					largeOn[p]++
				}
			}
			for p, cnt := range largeOn {
				if cnt > 1 {
					t.Fatalf("seed %d V=%d: processor %d holds %d large jobs", seed, v, p, cnt)
				}
			}
		}
	}
}

// Half-optimal structure: after a feasible run, the selected processors
// (Diag.Selected) end with load ≤ 1.5·V and the rest with load ≤ 1.5·V
// as well (non-selected may receive Step 6 smalls atop their ≤ V core).
func TestHalfOptimalLoadStructure(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		in := workload.Generate(workload.Config{
			N: 25, M: 4, MaxSize: 50, Sizes: workload.SizeZipf,
			Placement: workload.PlaceSkewed, Seed: seed,
		})
		v := in.LowerBound() + (in.InitialMakespan()-in.LowerBound())/2
		r := Partition(in, v, nil)
		if !r.Feasible {
			continue
		}
		loads := in.Loads(r.Solution.Assign)
		for p, l := range loads {
			if 2*l > 3*v {
				t.Fatalf("seed %d V=%d: processor %d load %d > 1.5·V", seed, v, p, l)
			}
		}
		if len(r.Selected) != r.LargeTotal {
			t.Fatalf("seed %d: |Selected| %d != L_T %d", seed, len(r.Selected), r.LargeTotal)
		}
	}
}

// The paper's Step 1 count: L_E equals the number of large jobs beyond
// the first on each processor of the initial assignment.
func TestLargeExtraCount(t *testing.T) {
	in := instance.MustNew(3,
		[]int64{10, 9, 8, 2, 7, 1},
		nil,
		[]int{0, 0, 0, 1, 2, 2})
	// Target 14: large iff size > 7 → {10, 9, 8} on processor 0.
	r := Partition(in, 14, nil)
	if !r.Feasible {
		t.Fatal("feasible target rejected")
	}
	if r.LargeTotal != 3 || r.LargeExtra != 2 {
		t.Fatalf("L_T=%d L_E=%d, want 3 and 2", r.LargeTotal, r.LargeExtra)
	}
}
