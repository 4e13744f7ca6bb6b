// Benchmarks: one per experiment of the evaluation suite (DESIGN.md §3).
// Each benchmark exercises the code path its experiment measures;
// cmd/experiments prints the corresponding tables.
package rebalance

import (
	"context"

	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/conflict"
	"repro/internal/constrained"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gap"
	"repro/internal/greedy"
	"repro/internal/hardness"
	"repro/internal/instance"
	"repro/internal/lpbound"
	"repro/internal/movemin"
	"repro/internal/ptas"
	"repro/internal/scheduling"
	"repro/internal/sim"
	"repro/internal/workload"
)

var benchSink uint64

// BenchmarkCalibration is a fixed pure-CPU workload (a splitmix64
// scramble, independent of everything this repository optimizes) used
// by cmd/benchdiff to normalize wall-clock comparisons for
// machine-speed drift: on a time-shared machine an entire run can sit
// in a window 10–50% slower than the one the baseline was recorded in,
// and the ratio of this benchmark between the two snapshots measures
// that ambient drift independently of the code under test. Changing
// this function invalidates the normalization of every committed
// baseline — regenerate BENCH.json in the same change.
func BenchmarkCalibration(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		x := uint64(i)
		for j := 0; j < 1<<14; j++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z ^= z >> 30
			z *= 0xbf58476d1ce4e5b9
			z ^= z >> 27
			z *= 0x94d049bb133111eb
			z ^= z >> 31
			acc += z
		}
	}
	benchSink = acc
}

// E1 — Theorem 1 tightness: adversarial GREEDY on the paper's instance.
func BenchmarkE1GreedyTightness(b *testing.B) {
	for _, m := range []int{8, 32} {
		in := instance.GreedyTight(m)
		k := instance.GreedyTightK(m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol := greedy.Rebalance(in, k, greedy.OrderSmallestFirst, nil)
				if sol.Makespan != int64(2*m-1) {
					b.Fatalf("adversarial makespan %d", sol.Makespan)
				}
			}
		})
	}
}

// E2 — Theorem 2 ratio: M-PARTITION on random instances (quality is
// checked by the test suite; the bench tracks cost).
func BenchmarkE2PartitionRatio(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 200, M: 8, MaxSize: 100, Sizes: workload.SizeZipf,
		Placement: workload.PlaceRandom, Seed: 7,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.MPartition(context.Background(), in, 20, core.BinarySearch, nil)
	}
}

// E3 — Theorem 1/3 O(n log n) scaling of GREEDY and M-PARTITION.
func BenchmarkE3Scaling(b *testing.B) {
	for _, n := range []int{1000, 8000, 64000} {
		in := workload.Generate(workload.Config{
			N: n, M: 32, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 5,
		})
		k := n / 10
		b.Run(fmt.Sprintf("greedy/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				greedy.Rebalance(in, k, greedy.OrderLargestFirst, nil)
			}
		})
		b.Run(fmt.Sprintf("mpartition/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.MPartition(context.Background(), in, k, core.BinarySearch, nil)
			}
		})
	}
}

// E4 — Theorem 4: PTAS runtime blow-up as ε shrinks.
func BenchmarkE4PTAS(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 8, M: 3, MaxSize: 30, Sizes: workload.SizeUniform,
		Placement: workload.PlaceRandom, Seed: 2,
	})
	for _, eps := range []float64{2.5, 1.5, 1.0} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ptas.Solve(context.Background(), in, 3, ptas.Options{Eps: eps}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E5 — head-to-head cost of every algorithm on one instance.
func BenchmarkE5Comparison(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 12, M: 3, MaxSize: 30, Placement: workload.PlaceRandom, Seed: 11,
	})
	const k = 4
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.Solve(context.Background(), in, k, exact.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mpartition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MPartition(context.Background(), in, k, core.BinarySearch, nil)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			greedy.Rebalance(in, k, greedy.OrderLargestFirst, nil)
		}
	})
	b.Run("ptas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ptas.Solve(context.Background(), in, k, ptas.Options{Eps: 1.5}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gap.Rebalance(in, k, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E6 — §3.2 budget frontier: one full budget sweep per iteration.
func BenchmarkE6Budget(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 40, M: 5, MaxSize: 100, Sizes: workload.SizeZipf,
		Costs: workload.CostProportional, Placement: workload.PlaceSkewed, Seed: 21,
	})
	budgets := []int64{0, in.TotalSize() / 20, in.TotalSize() / 4, in.TotalSize()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bud := range budgets {
			core.PartitionBudget(context.Background(), in, bud, core.BudgetOptions{}, nil)
		}
	}
}

// E7 — Shmoys–Tardos baseline cost (LP + rounding) vs M-PARTITION.
func BenchmarkE7GAPBaseline(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 60, M: 6, MaxSize: 200, Sizes: workload.SizeZipf,
		Placement: workload.PlaceSkewed, Seed: 9,
	})
	b.Run("gap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gap.Rebalance(in, 10, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mpartition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MPartition(context.Background(), in, 10, core.BinarySearch, nil)
		}
	})
}

// E8 — Theorem 5: exact move minimization over a PARTITION gadget.
func BenchmarkE8MoveMin(b *testing.B) {
	in, target := movemin.FromPartition([]int64{8, 7, 6, 5, 4})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := movemin.Exact(context.Background(), in, target, exact.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			movemin.Greedy(in, target)
		}
	})
}

// E9 — web farm simulation, one policy round-trip per iteration.
func BenchmarkE9WebFarm(b *testing.B) {
	cfg := sim.Config{
		Sites: 100, Servers: 8, Steps: 50, RebalanceEvery: 5,
		MovesPerRound: 5, FlashProb: 0.15, Seed: 42,
	}
	for _, p := range []sim.Policy{sim.PolicyEngine{Solver: "greedy"}, sim.PolicyEngine{Solver: "mpartition"}, sim.PolicyFull{}} {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E10 — Theorem 6/7 gadget construction and decision.
func BenchmarkE10Reductions(b *testing.B) {
	d := hardness.Planted(3, 3, 1)
	b.Run("constrained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ci, _, err := constrained.FromThreeDM(d)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := constrained.Exact(context.Background(), ci, ci.Base.N(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("conflict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ci, err := conflict.FromThreeDM(d)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := conflict.Feasible(ci, 0); !ok {
				b.Fatal("YES gadget infeasible")
			}
		}
	})
}

// E11 — ablation: M-PARTITION binary search vs the paper's threshold
// ladder.
func BenchmarkE11Ablation(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 400, M: 8, MaxSize: 500, Sizes: workload.SizeUniform,
		Placement: workload.PlaceSkewed, Seed: 3,
	})
	const k = 50
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MPartition(context.Background(), in, k, core.BinarySearch, nil)
		}
	})
	b.Run("ladder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MPartition(context.Background(), in, k, core.ThresholdScan, nil)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MPartition(context.Background(), in, k, core.IncrementalScan, nil)
		}
	})
}

// E12 — the makespan-vs-k frontier, computed in parallel.
func BenchmarkE12Frontier(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 2000, M: 16, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 12,
	})
	ks := []int{0, 10, 50, 200, 1000, 2000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Frontier(context.Background(), in, ks, FrontierOptions{})
	}
}

// Worker scaling of the frontier sweep: the same k-sweep at pool sizes
// 1/2/4/8. On a multi-core box the workers=8 line should approach the
// core count in speedup over workers=1; on a single-core box (compare
// the recorded gomaxprocs) the lines collapse and only measure pool
// overhead. Results are byte-identical at every worker count.
func BenchmarkFrontierWorkers(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 2000, M: 16, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 12,
	})
	ks := []int{0, 5, 10, 25, 50, 100, 200, 400, 800, 1200, 1600, 2000}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Frontier(context.Background(), in, ks, FrontierOptions{Workers: w})
			}
		})
	}
}

// E13 — the LP relaxation lower bound at medium scale.
func BenchmarkE13LPBound(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 50, M: 6, MaxSize: 100, Sizes: workload.SizeZipf,
		Placement: workload.PlaceSkewed, Seed: 21,
	})
	for i := 0; i < b.N; i++ {
		if _, err := lpbound.Moves(in, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// E15 — the adversarial ratio hunt.
func BenchmarkE15AdversaryHunt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, _ := adversary.Hunt(context.Background(), adversary.TargetMPartition, adversary.Config{Trials: 50, Seed: uint64(i)})
		if w.Ratio > 1.5 {
			b.Fatalf("bound crossed: %.4f", w.Ratio)
		}
	}
}

// E14 — the classical schedulers on the k = n regime.
func BenchmarkE14Scheduling(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 120, M: 8, MaxSize: 200, Sizes: workload.SizeUniform,
		Placement: workload.PlaceOneHot, Seed: 4,
	})
	sizes := scheduling.FromInstance(in)
	b.Run("lpt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheduling.LPT(sizes, in.M)
		}
	})
	b.Run("multifit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheduling.Multifit(sizes, in.M, 0)
		}
	})
	b.Run("hs-ptas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheduling.DualPTAS(sizes, in.M, 0.2)
		}
	})
	b.Run("mpartition-kn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MPartition(context.Background(), in, in.N(), core.IncrementalScan, nil)
		}
	})
}
