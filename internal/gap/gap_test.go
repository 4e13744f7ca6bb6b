package gap

import (
	"context"

	"testing"

	"repro/internal/exact"
	"repro/internal/instance"
	"repro/internal/verify"
	"repro/internal/workload"
)

func TestAlreadyBalanced(t *testing.T) {
	in := instance.MustNew(2, []int64{5, 5}, nil, []int{0, 1})
	sol, err := Rebalance(in, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Makespan != 5 || sol.Moves != 0 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSimpleMove(t *testing.T) {
	in := instance.MustNew(2, []int64{4, 3}, nil, []int{0, 0})
	sol, err := Rebalance(in, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.WithinBudget(in, sol.Assign, 1); err != nil {
		t.Fatal(err)
	}
	// OPT = 4; the 2-approximation must end ≤ 8, and here the LP target
	// reaches 4 so the rounding lands at 4 or 7; either is within 2·OPT.
	if sol.Makespan > 8 {
		t.Fatalf("makespan = %d > 2·OPT", sol.Makespan)
	}
}

// The Shmoys–Tardos guarantee, verified against the exact optimum:
// budget respected, makespan ≤ 2·OPT(budget).
func TestTwoApproximationGuarantee(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		in := workload.Generate(workload.Config{
			N: 9, M: 3, MaxSize: 25,
			Sizes: workload.SizeDist(seed % 3), Costs: workload.CostModel(seed % 4),
			Placement: workload.PlaceRandom, Seed: seed,
		})
		for _, b := range []int64{0, 4, 15, 100} {
			sol, err := Rebalance(in, b, nil)
			if err != nil {
				t.Fatalf("seed %d B %d: %v", seed, b, err)
			}
			if _, err := verify.WithinBudget(in, sol.Assign, b); err != nil {
				t.Fatalf("seed %d B %d: %v", seed, b, err)
			}
			opt, err := exact.SolveBudget(context.Background(), in, b, exact.Limits{})
			if err != nil {
				t.Fatalf("seed %d B %d: %v", seed, b, err)
			}
			if sol.Makespan > 2*opt.Makespan {
				t.Fatalf("seed %d B %d: makespan %d > 2·OPT (%d)", seed, b, sol.Makespan, opt.Makespan)
			}
		}
	}
}

func TestUnitCostsKMoveComparison(t *testing.T) {
	// §2's reduction with unit costs: budget k plays the role of the
	// move bound.
	for seed := uint64(0); seed < 8; seed++ {
		in := workload.Generate(workload.Config{
			N: 10, M: 3, MaxSize: 20, Costs: workload.CostUnit,
			Placement: workload.PlaceOneHot, Seed: seed,
		})
		k := 5
		sol, err := Rebalance(in, int64(k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verify.WithinMoves(in, sol.Assign, k); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt, err := exact.Solve(context.Background(), in, k, exact.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Makespan > 2*opt.Makespan {
			t.Fatalf("seed %d: %d > 2·OPT (%d)", seed, sol.Makespan, opt.Makespan)
		}
	}
}

func TestZeroBudget(t *testing.T) {
	in := workload.Generate(workload.Config{
		N: 12, M: 3, MaxSize: 30, Costs: workload.CostProportional,
		Placement: workload.PlaceSkewed, Seed: 2,
	})
	sol, err := Rebalance(in, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.MoveCost != 0 {
		t.Fatalf("cost = %d with zero budget", sol.MoveCost)
	}
}

func TestNeverWorseThanInitial(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		in := workload.Generate(workload.Config{
			N: 15, M: 4, MaxSize: 40, Costs: workload.CostRandom,
			Placement: workload.PlaceBalanced, Seed: seed,
		})
		sol, err := Rebalance(in, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Makespan > in.InitialMakespan() {
			t.Fatalf("seed %d: %d worse than initial %d", seed, sol.Makespan, in.InitialMakespan())
		}
	}
}

func TestMediumInstanceSmoke(t *testing.T) {
	in := workload.Generate(workload.Config{
		N: 40, M: 5, Sizes: workload.SizeZipf, Costs: workload.CostProportional,
		Placement: workload.PlaceSkewed, Seed: 13,
	})
	b := in.TotalSize() / 4
	sol, err := Rebalance(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.WithinBudget(in, sol.Assign, b); err != nil {
		t.Fatal(err)
	}
	if sol.Makespan >= in.InitialMakespan() {
		t.Fatalf("no improvement: %d -> %d", in.InitialMakespan(), sol.Makespan)
	}
}
