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

func TestPartitionRejectsImpossibleTargets(t *testing.T) {
	in := instance.MustNew(2, []int64{10, 1}, nil, []int{0, 1})
	if Partition(in, 9, nil).Feasible {
		t.Fatal("target below the largest job accepted")
	}
	in2 := instance.MustNew(2, []int64{5, 5, 5, 5}, nil, []int{0, 0, 1, 1})
	if Partition(in2, 9, nil).Feasible {
		t.Fatal("target below the average load accepted")
	}
	// Three large jobs, two processors: L_T > m.
	in3 := instance.MustNew(2, []int64{7, 7, 7}, nil, []int{0, 0, 1})
	if Partition(in3, 11, nil).Feasible {
		t.Fatal("L_T > m accepted")
	}
}

func TestPartitionAtInitialMakespanMakesNoRemovals(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		in := workload.Generate(workload.Config{
			N: 30, M: 4, Sizes: workload.SizeBimodal, Placement: workload.PlaceSkewed, Seed: seed,
		})
		r := Partition(in, in.InitialMakespan(), nil)
		if !r.Feasible {
			t.Fatalf("seed %d: initial makespan infeasible", seed)
		}
		if r.Removals != 0 {
			t.Fatalf("seed %d: %d removals at V = initial makespan, want 0", seed, r.Removals)
		}
	}
}

func TestPartitionHalfOptimalBound(t *testing.T) {
	// At any feasible target, the makespan must be ≤ 1.5·target.
	for seed := uint64(0); seed < 30; seed++ {
		in := workload.Generate(workload.Config{
			N: 40, M: 5, Sizes: workload.SizeZipf, Placement: workload.PlaceRandom, Seed: seed,
		})
		for v := in.LowerBound(); v <= in.InitialMakespan(); v += (in.InitialMakespan()-in.LowerBound())/7 + 1 {
			r := Partition(in, v, nil)
			if !r.Feasible {
				continue
			}
			if 2*r.Solution.Makespan > 3*v {
				t.Fatalf("seed %d V=%d: makespan %d > 1.5·V", seed, v, r.Solution.Makespan)
			}
			if r.Solution.Moves > r.Removals {
				t.Fatalf("seed %d V=%d: moves %d > removals %d", seed, v, r.Solution.Moves, r.Removals)
			}
			if _, err := verify.Solution(in, r.Solution.Assign); err != nil {
				t.Fatalf("seed %d V=%d: %v", seed, v, err)
			}
		}
	}
}

// The heart of the reproduction: M-PARTITION is a true 1.5-approximation
// using at most k moves, verified against the exact optimum.
func TestMPartitionApproximationGuarantee(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		in := workload.Generate(workload.Config{
			N: 10, M: 3, MaxSize: 25,
			Sizes:     workload.SizeDist(seed % 3),
			Placement: workload.Placement(seed % 4),
			Seed:      seed,
		})
		for _, k := range []int{0, 1, 2, 3, 5, 10} {
			opt, err := exact.Solve(context.Background(), in, k, exact.Limits{})
			if err != nil {
				t.Fatalf("seed %d k %d: %v", seed, k, err)
			}
			bin, _ := MPartition(context.Background(), in, k, BinarySearch, nil)
			for _, c := range []struct {
				search string
				sol    instance.Solution
			}{{"binary", bin}, {"ladder oracle", ladderScan(in, k)}} {
				if _, err := verify.WithinMoves(in, c.sol.Assign, k); err != nil {
					t.Fatalf("%s seed %d k %d: %v", c.search, seed, k, err)
				}
				if 2*c.sol.Makespan > 3*opt.Makespan {
					t.Fatalf("%s seed %d k %d: makespan %d > 1.5·OPT (%d)",
						c.search, seed, k, c.sol.Makespan, opt.Makespan)
				}
			}
		}
	}
}

func TestMPartitionTightInstance(t *testing.T) {
	// Theorem 2's tight example: PARTITION makes no moves and achieves
	// exactly 1.5·OPT.
	in := instance.PartitionTight()
	sol, _ := MPartition(context.Background(), in, instance.PartitionTightK(), BinarySearch, nil)
	if sol.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3 = 1.5·OPT", sol.Makespan)
	}
	if sol.Moves != 0 {
		t.Fatalf("moves = %d, want 0", sol.Moves)
	}
}

func TestMPartitionBeatsGreedyOnTightInstance(t *testing.T) {
	// On the Theorem 1 instance (OPT = m), M-PARTITION must stay within
	// 1.5m while adversarial GREEDY hits 2m−1.
	for _, m := range []int{4, 6, 10} {
		in := instance.GreedyTight(m)
		k := instance.GreedyTightK(m)
		sol, _ := MPartition(context.Background(), in, k, BinarySearch, nil)
		if _, err := verify.WithinMoves(in, sol.Assign, k); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if 2*sol.Makespan > 3*int64(m) {
			t.Fatalf("m=%d: makespan %d > 1.5·OPT (OPT=%d)", m, sol.Makespan, m)
		}
	}
}

func TestMPartitionZeroMoves(t *testing.T) {
	in := workload.Generate(workload.Config{N: 20, M: 3, Seed: 4, Placement: workload.PlaceSkewed})
	sol, _ := MPartition(context.Background(), in, 0, BinarySearch, nil)
	if sol.Moves != 0 || sol.Makespan != in.InitialMakespan() {
		t.Fatalf("k=0 solution %+v", sol)
	}
	sol, _ = MPartition(context.Background(), in, -5, BinarySearch, nil)
	if sol.Moves != 0 {
		t.Fatalf("negative k moved jobs: %+v", sol)
	}
}

func TestMPartitionNeverWorseThanInitial(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		in := workload.Generate(workload.Config{
			N: 50, M: 6, Sizes: workload.SizeZipf, Placement: workload.PlaceBalanced, Seed: seed,
		})
		sol, _ := MPartition(context.Background(), in, 5, BinarySearch, nil)
		if sol.Makespan > in.InitialMakespan() {
			t.Fatalf("seed %d: %d worse than initial %d", seed, sol.Makespan, in.InitialMakespan())
		}
	}
}

func TestThresholdLadderCoversBinarySearchTarget(t *testing.T) {
	// Neither the bisection nor the ladder oracle may relocate more
	// than k jobs.
	for seed := uint64(0); seed < 15; seed++ {
		in := workload.Generate(workload.Config{
			N: 24, M: 4, MaxSize: 50, Sizes: workload.SizeUniform,
			Placement: workload.PlaceSkewed, Seed: seed,
		})
		k := 6
		a, _ := MPartition(context.Background(), in, k, BinarySearch, nil)
		b := ladderScan(in, k)
		if _, err := verify.WithinMoves(in, a.Assign, k); err != nil {
			t.Fatalf("seed %d binary: %v", seed, err)
		}
		if _, err := verify.WithinMoves(in, b.Assign, k); err != nil {
			t.Fatalf("seed %d ladder: %v", seed, err)
		}
	}
}

func TestMPartitionSingleProcessor(t *testing.T) {
	in := instance.MustNew(1, []int64{5, 3, 2}, nil, []int{0, 0, 0})
	sol, _ := MPartition(context.Background(), in, 2, BinarySearch, nil)
	if sol.Makespan != 10 || sol.Moves != 0 {
		t.Fatalf("m=1 solution %+v, want untouched makespan 10", sol)
	}
}

func TestMPartitionLargeUniform(t *testing.T) {
	// A bigger smoke test: 2000 jobs, verify constraints and improvement.
	in := workload.Generate(workload.Config{
		N: 2000, M: 16, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 11,
	})
	k := 200
	sol, _ := MPartition(context.Background(), in, k, BinarySearch, nil)
	if _, err := verify.WithinMoves(in, sol.Assign, k); err != nil {
		t.Fatal(err)
	}
	if sol.Makespan >= in.InitialMakespan() {
		t.Fatalf("no improvement: %d -> %d", in.InitialMakespan(), sol.Makespan)
	}
}

// Property: on arbitrary random instances the binary-search M-PARTITION
// respects k and ends within 1.5× the exact optimum.
func TestMPartitionProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		in := workload.Generate(workload.Config{
			N: 8, M: 2 + int(seed%3), MaxSize: 30,
			Sizes: workload.SizeBimodal, Placement: workload.PlaceRandom, Seed: seed,
		})
		k := int(kRaw % 9)
		sol, _ := MPartition(context.Background(), in, k, BinarySearch, nil)
		if _, err := verify.WithinMoves(in, sol.Assign, k); err != nil {
			return false
		}
		opt, err := exact.Solve(context.Background(), in, k, exact.Limits{})
		if err != nil {
			return true // skip oversized searches
		}
		return 2*sol.Makespan <= 3*opt.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestProbeCountMatchesProbeFlat is the count probe's differential
// test: at every target in [lo−2, hi+2], probeCount must report the
// feasibility, removal count and large-job counts that the full
// PARTITION run reports, and the full run must never displace more
// large jobs than it has large-free selected processors to take them. The shapes are the cold-solve and hot-fleet
// serving instances and small uniform ones whose many equal sizes put
// ties on every rung.
func TestProbeCountMatchesProbeFlat(t *testing.T) {
	var cases []*instance.Instance
	for seed := uint64(0); seed < 2; seed++ {
		cases = append(cases,
			workload.Generate(workload.Config{
				N: 2000, M: 16, MaxSize: 1000, Sizes: workload.SizeZipf,
				Placement: workload.PlaceSkewed, Costs: workload.CostUnit, Seed: seed,
			}),
			workload.Generate(workload.Config{
				N: 200, M: 8, MaxSize: 1000, Sizes: workload.SizeZipf,
				Placement: workload.PlaceSkewed, Costs: workload.CostUnit, Seed: seed,
			}))
	}
	for seed := uint64(0); seed < 20; seed++ {
		cases = append(cases, workload.Generate(workload.Config{
			N: 10 + int(seed), M: 2 + int(seed%5), MaxSize: 6,
			Sizes: workload.SizeUniform, Placement: workload.PlaceSkewed, Seed: seed,
		}))
	}
	for i, in := range cases {
		full, count := newSolver(in, nil), newSolver(in, nil)
		for v := in.LowerBound() - 2; v <= in.InitialMakespan()+2; v++ {
			ok := full.probeFlat(v)
			if got := count.probeCount(v); got != ok {
				t.Fatalf("case %d (n=%d m=%d) target %d: probeCount feasible=%v, probeFlat %v", i, in.N(), in.M, v, got, ok)
			}
			if !ok {
				continue
			}
			// DESIGN §8's counting argument: once L_T ≤ m, the displaced
			// large jobs never outnumber the selected large-free processors.
			if len(full.removedLarge) > len(full.freeSlots) {
				t.Fatalf("case %d target %d: %d displaced large jobs, %d large-free selected processors",
					i, v, len(full.removedLarge), len(full.freeSlots))
			}
			if full.lastRemovals != count.lastRemovals || full.lastLargeTotal != count.lastLargeTotal || full.lastLargeExtra != count.lastLargeExtra {
				t.Fatalf("case %d target %d: count (removals %d, L_T %d, L_E %d), full (%d, %d, %d)", i, v,
					count.lastRemovals, count.lastLargeTotal, count.lastLargeExtra,
					full.lastRemovals, full.lastLargeTotal, full.lastLargeExtra)
			}
		}
	}
}
