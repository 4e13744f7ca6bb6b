package lpbound

import (
	"context"

	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/instance"
	"repro/internal/workload"
)

func TestBoundSandwich(t *testing.T) {
	// LowerBound ≤ LP bound ≤ exact OPT on small instances.
	for seed := uint64(0); seed < 15; seed++ {
		in := workload.Generate(workload.Config{
			N: 9, M: 3, MaxSize: 25, Placement: workload.PlaceRandom, Seed: seed,
		})
		for _, k := range []int{0, 2, 5, 9} {
			lb, err := Moves(in, k)
			if err != nil {
				t.Fatalf("seed %d k %d: %v", seed, k, err)
			}
			opt, err := exact.Solve(context.Background(), in, k, exact.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if lb > opt.Makespan {
				t.Fatalf("seed %d k %d: LP bound %d exceeds OPT %d", seed, k, lb, opt.Makespan)
			}
			if lb < in.LowerBound() {
				t.Fatalf("seed %d k %d: LP bound %d below packing bound %d",
					seed, k, lb, in.LowerBound())
			}
		}
	}
}

func TestZeroMovesPinsInitial(t *testing.T) {
	in := workload.Generate(workload.Config{
		N: 12, M: 3, MaxSize: 30, Placement: workload.PlaceSkewed, Seed: 3,
	})
	lb, err := Moves(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lb != in.InitialMakespan() {
		t.Fatalf("k=0 bound %d, want initial makespan %d", lb, in.InitialMakespan())
	}
}

func TestMonotoneInK(t *testing.T) {
	in := workload.Generate(workload.Config{
		N: 15, M: 4, MaxSize: 40, Placement: workload.PlaceOneHot, Seed: 7,
	})
	prev := int64(1) << 62
	for _, k := range []int{0, 1, 2, 4, 8, 15} {
		lb, err := Moves(in, k)
		if err != nil {
			t.Fatal(err)
		}
		if lb > prev {
			t.Fatalf("k=%d bound %d worse than smaller k's %d", k, lb, prev)
		}
		prev = lb
	}
}

func TestBudgetBound(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		in := workload.Generate(workload.Config{
			N: 8, M: 3, MaxSize: 20, Costs: workload.CostRandom,
			Placement: workload.PlaceRandom, Seed: seed,
		})
		for _, b := range []int64{0, 10, 100} {
			lb, err := Budget(in, b)
			if err != nil {
				t.Fatalf("seed %d B %d: %v", seed, b, err)
			}
			opt, err := exact.SolveBudget(context.Background(), in, b, exact.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if lb > opt.Makespan {
				t.Fatalf("seed %d B %d: LP bound %d exceeds OPT %d", seed, b, lb, opt.Makespan)
			}
		}
	}
}

func TestMediumScaleBoundsMPartition(t *testing.T) {
	// The point of the package: at sizes the exact solver cannot touch,
	// the LP bound certifies M-PARTITION's quality.
	in := workload.Generate(workload.Config{
		N: 80, M: 6, MaxSize: 100, Sizes: workload.SizeZipf,
		Placement: workload.PlaceSkewed, Seed: 21,
	})
	k := 15
	lb, err := Moves(in, k)
	if err != nil {
		t.Fatal(err)
	}
	sol, _ := core.MPartition(context.Background(), in, k, core.BinarySearch, nil)
	if sol.Makespan < lb {
		t.Fatalf("M-PARTITION %d beat the LP lower bound %d", sol.Makespan, lb)
	}
	// The certified ratio (makespan / LP bound) upper-bounds the true
	// ratio; in practice it is far below the proven 1.5 — check sanity.
	if float64(sol.Makespan)/float64(lb) >= 2 {
		t.Fatalf("certified ratio %.3f ≥ 2 (makespan %d, LP bound %d)",
			float64(sol.Makespan)/float64(lb), sol.Makespan, lb)
	}
}

func TestBelowMaxSizeInfeasible(t *testing.T) {
	in := instance.MustNew(2, []int64{10, 1}, nil, []int{0, 1})
	if feasibleAt(in, 9, 2, false) {
		t.Fatal("target below the largest job feasible")
	}
}
