package rebalance

import (
	"fmt"
	"testing"
)

// The full differential matrix: every solver on every workload family,
// cross-checked against the exact optimum and each algorithm's proven
// bound. This is the repository's strongest single test — a regression
// anywhere in the algorithm stack (core, greedy, ptas, gap, knapsack,
// lp, exact) surfaces here.
func TestDifferentialMatrix(t *testing.T) {
	type bounds struct {
		name string
		// holdsK checks sol against opt for the k-move model.
		run func(in *Instance, k int) (Solution, error)
		ok  func(sol Solution, opt int64, m int) error
	}
	within := func(num, den int64) func(Solution, int64, int) error {
		return func(sol Solution, opt int64, _ int) error {
			if den*sol.Makespan > num*opt {
				return fmt.Errorf("makespan %d > %d/%d·OPT (%d)", sol.Makespan, num, den, opt)
			}
			return nil
		}
	}
	algos := []bounds{
		{"mpartition", func(in *Instance, k int) (Solution, error) {
			return Partition(in, k), nil
		}, within(3, 2)},
		{"partition-budget", func(in *Instance, k int) (Solution, error) {
			return PartitionBudget(in, int64(k)), nil
		}, within(3, 2)},
		{"greedy", func(in *Instance, k int) (Solution, error) {
			return Greedy(in, k), nil
		}, func(sol Solution, opt int64, m int) error {
			if int64(m)*sol.Makespan > (2*int64(m)-1)*opt {
				return fmt.Errorf("makespan %d > (2−1/m)·OPT (%d)", sol.Makespan, opt)
			}
			return nil
		}},
		{"ptas-1.0", func(in *Instance, k int) (Solution, error) {
			return PTAS(in, int64(k), PTASOptions{Eps: 1.0})
		}, within(2, 1)},
		{"gap", func(in *Instance, k int) (Solution, error) {
			return GAPBaseline(in, int64(k))
		}, within(2, 1)},
	}

	for _, sizes := range []SizeDist{SizeUniform, SizeZipf, SizeBimodal, SizeEqual} {
		for _, place := range []PlacementDist{PlaceRandom, PlaceSkewed, PlaceOneHot} {
			for seed := uint64(0); seed < 4; seed++ {
				in := Generate(WorkloadConfig{
					N: 8, M: 3, MaxSize: 25, Sizes: sizes, Placement: place, Seed: seed,
				})
				for _, k := range []int{0, 2, 4} {
					opt, err := Exact(in, k)
					if err != nil {
						t.Fatal(err)
					}
					for _, a := range algos {
						sol, err := a.run(in, k)
						if err != nil {
							t.Fatalf("%s/%s/%s seed %d k %d: %v", a.name, sizes, place, seed, k, err)
						}
						// Unit costs throughout, so the k-move and
						// budget-k constraints coincide.
						if err := CheckMoves(in, sol, k); err != nil {
							t.Fatalf("%s/%s/%s seed %d k %d: %v", a.name, sizes, place, seed, k, err)
						}
						if sol.Makespan < opt.Makespan {
							t.Fatalf("%s/%s/%s seed %d k %d: beat the optimum (%d < %d)",
								a.name, sizes, place, seed, k, sol.Makespan, opt.Makespan)
						}
						if err := a.ok(sol, opt.Makespan, in.M); err != nil {
							t.Fatalf("%s/%s/%s seed %d k %d: %v", a.name, sizes, place, seed, k, err)
						}
					}
				}
			}
		}
	}
}

// The same matrix under arbitrary costs (smaller, since exact budget
// search is pricier): the budget-capable algorithms against ExactBudget.
func TestDifferentialMatrixBudget(t *testing.T) {
	for _, costs := range []CostModel{CostProportional, CostAntiCorrelated, CostRandom} {
		for seed := uint64(0); seed < 5; seed++ {
			in := Generate(WorkloadConfig{
				N: 8, M: 3, MaxSize: 25, Sizes: SizeUniform, Costs: costs,
				Placement: PlaceRandom, Seed: seed,
			})
			for _, b := range []int64{0, 10, 50} {
				opt, err := ExactBudget(in, b)
				if err != nil {
					t.Fatal(err)
				}
				pb := PartitionBudget(in, b)
				if err := CheckBudget(in, pb, b); err != nil {
					t.Fatalf("budget/%s seed %d B %d: %v", costs, seed, b, err)
				}
				if 2*pb.Makespan > 3*opt.Makespan {
					t.Fatalf("budget/%s seed %d B %d: %d > 1.5·OPT (%d)",
						costs, seed, b, pb.Makespan, opt.Makespan)
				}
				pt, err := PTAS(in, b, PTASOptions{Eps: 1.0})
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckBudget(in, pt, b); err != nil {
					t.Fatalf("ptas/%s seed %d B %d: %v", costs, seed, b, err)
				}
				if pt.Makespan > 2*opt.Makespan {
					t.Fatalf("ptas/%s seed %d B %d: %d > 2·OPT (%d)",
						costs, seed, b, pt.Makespan, opt.Makespan)
				}
				gp, err := GAPBaseline(in, b)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckBudget(in, gp, b); err != nil {
					t.Fatalf("gap/%s seed %d B %d: %v", costs, seed, b, err)
				}
				if gp.Makespan > 2*opt.Makespan {
					t.Fatalf("gap/%s seed %d B %d: %d > 2·OPT (%d)",
						costs, seed, b, gp.Makespan, opt.Makespan)
				}
			}
		}
	}
}
