package core

import (
	"context"

	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/instance"
	"repro/internal/verify"
	"repro/internal/workload"
)

func TestPartitionBudgetAtRejectsImpossible(t *testing.T) {
	in := instance.MustNew(2, []int64{10, 1}, nil, []int{0, 1})
	if PartitionBudgetAt(in, 9, BudgetOptions{}, nil).Feasible {
		t.Fatal("target below largest job accepted")
	}
	in3 := instance.MustNew(2, []int64{7, 7, 7}, []int64{1, 1, 1}, []int{0, 0, 1})
	if PartitionBudgetAt(in3, 11, BudgetOptions{}, nil).Feasible {
		t.Fatal("L_T > m accepted")
	}
}

func TestPartitionBudgetAtInitialIsFree(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		in := workload.Generate(workload.Config{
			N: 25, M: 4, Sizes: workload.SizeBimodal, Costs: workload.CostRandom,
			Placement: workload.PlaceSkewed, Seed: seed,
		})
		r := PartitionBudgetAt(in, in.InitialMakespan(), BudgetOptions{}, nil)
		if !r.Feasible || r.Cost != 0 {
			t.Fatalf("seed %d: feasible=%v cost=%d at V = initial makespan", seed, r.Feasible, r.Cost)
		}
	}
}

func TestPartitionBudgetGuarantee(t *testing.T) {
	// Against the exact optimum: cost within budget, makespan within
	// 1.5·OPT (exact knapsacks on these small sizes, so no ε slack).
	for seed := uint64(0); seed < 30; seed++ {
		in := workload.Generate(workload.Config{
			N: 9, M: 3, MaxSize: 20,
			Sizes: workload.SizeUniform, Costs: workload.CostModel(seed % 4),
			Placement: workload.PlaceRandom, Seed: seed,
		})
		for _, b := range []int64{0, 3, 10, 40, 1 << 40} {
			sol, _ := PartitionBudget(context.Background(), in, b, BudgetOptions{}, nil)
			if _, err := verify.WithinBudget(in, sol.Assign, b); err != nil {
				t.Fatalf("seed %d B %d: %v", seed, b, err)
			}
			opt, err := exact.SolveBudget(context.Background(), in, b, exact.Limits{})
			if err != nil {
				t.Fatalf("seed %d B %d: %v", seed, b, err)
			}
			if 2*sol.Makespan > 3*opt.Makespan {
				t.Fatalf("seed %d B %d: makespan %d > 1.5·OPT (%d)", seed, b, sol.Makespan, opt.Makespan)
			}
		}
	}
}

func TestPartitionBudgetZeroBudgetMovesOnlyFreeJobs(t *testing.T) {
	in := instance.MustNew(2, []int64{4, 3}, []int64{0, 5}, []int{0, 0})
	sol, _ := PartitionBudget(context.Background(), in, 0, BudgetOptions{}, nil)
	if sol.MoveCost != 0 {
		t.Fatalf("cost = %d with zero budget", sol.MoveCost)
	}
	if sol.Makespan > 4 {
		t.Fatalf("makespan = %d; the free job should have moved", sol.Makespan)
	}
}

func TestPartitionBudgetUnitCostsMatchMPartition(t *testing.T) {
	// With unit costs and budget k, the guarantee coincides with the
	// k-move model: verify both deliver ≤ 1.5·OPT(k).
	for seed := uint64(0); seed < 15; seed++ {
		in := workload.Generate(workload.Config{
			N: 9, M: 3, MaxSize: 25, Costs: workload.CostUnit,
			Placement: workload.PlaceRandom, Seed: seed,
		})
		k := 3
		a, _ := MPartition(context.Background(), in, k, BinarySearch, nil)
		b, _ := PartitionBudget(context.Background(), in, int64(k), BudgetOptions{}, nil)
		opt, err := exact.Solve(context.Background(), in, k, exact.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if 2*a.Makespan > 3*opt.Makespan || 2*b.Makespan > 3*opt.Makespan {
			t.Fatalf("seed %d: mpartition %d, budget %d, opt %d", seed, a.Makespan, b.Makespan, opt.Makespan)
		}
		if b.MoveCost > int64(k) {
			t.Fatalf("seed %d: budget variant spent %d > %d", seed, b.MoveCost, k)
		}
	}
}

func TestPartitionBudgetApproxKnapsackPath(t *testing.T) {
	// Force the rounded-size knapsack (tiny ExactWork) and confirm the
	// relaxed guarantee 1.5·(1+ε) still holds vs exact.
	const eps = 0.2
	for seed := uint64(0); seed < 15; seed++ {
		in := workload.Generate(workload.Config{
			N: 9, M: 3, MaxSize: 2000, Sizes: workload.SizeUniform,
			Costs: workload.CostAntiCorrelated, Placement: workload.PlaceSkewed, Seed: seed,
		})
		b := int64(30)
		sol, _ := PartitionBudget(context.Background(), in, b, BudgetOptions{Eps: eps, ExactWork: 1}, nil)
		if _, err := verify.WithinBudget(in, sol.Assign, b); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt, err := exact.SolveBudget(context.Background(), in, b, exact.Limits{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		limit := int64(1.5 * (1 + eps) * float64(opt.Makespan))
		if sol.Makespan > limit {
			t.Fatalf("seed %d: makespan %d > 1.5(1+ε)·OPT = %d", seed, sol.Makespan, limit)
		}
	}
}

func TestPartitionBudgetNeverWorseThanInitial(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		in := workload.Generate(workload.Config{
			N: 60, M: 5, Sizes: workload.SizeZipf, Costs: workload.CostProportional,
			Placement: workload.PlaceBalanced, Seed: seed,
		})
		sol, _ := PartitionBudget(context.Background(), in, 100, BudgetOptions{}, nil)
		if sol.Makespan > in.InitialMakespan() {
			t.Fatalf("seed %d: %d worse than initial %d", seed, sol.Makespan, in.InitialMakespan())
		}
	}
}

// Property: arbitrary costs, arbitrary budgets — budget respected and
// the 1.5 bound holds against the exact optimum.
func TestPartitionBudgetProperty(t *testing.T) {
	f := func(seed uint64, bRaw uint16) bool {
		in := workload.Generate(workload.Config{
			N: 8, M: 3, MaxSize: 25, Costs: workload.CostRandom,
			Sizes: workload.SizeBimodal, Placement: workload.PlaceRandom, Seed: seed,
		})
		budget := int64(bRaw % 200)
		sol, _ := PartitionBudget(context.Background(), in, budget, BudgetOptions{}, nil)
		if _, err := verify.WithinBudget(in, sol.Assign, budget); err != nil {
			return false
		}
		opt, err := exact.SolveBudget(context.Background(), in, budget, exact.Limits{})
		if err != nil {
			return true
		}
		return 2*sol.Makespan <= 3*opt.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
