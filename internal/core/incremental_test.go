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

// The incremental scan must pick the same target as the materialized
// ladder — both walk the identical threshold set and accept the first
// rung whose move count fits.
func TestIncrementalMatchesNaiveLadder(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		in := workload.Generate(workload.Config{
			N: 25, M: 2 + int(seed%4), MaxSize: 60,
			Sizes:     workload.SizeDist(seed % 3),
			Placement: workload.Placement(seed % 4),
			Seed:      seed,
		})
		for _, k := range []int{0, 1, 3, 8} {
			naive, _ := MPartition(context.Background(), in, k, ThresholdScan, nil)
			inc, _ := MPartition(context.Background(), in, k, IncrementalScan, nil)
			if naive.Makespan != inc.Makespan {
				t.Fatalf("seed %d k %d: naive makespan %d, incremental %d",
					seed, k, naive.Makespan, inc.Makespan)
			}
			if naive.Moves != inc.Moves {
				t.Fatalf("seed %d k %d: naive moves %d, incremental %d",
					seed, k, naive.Moves, inc.Moves)
			}
		}
	}
}

// k̂ evaluated incrementally must equal the removals of a full PARTITION
// run at the same threshold.
func TestIncrementalMoveCountAgreesWithRun(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		in := workload.Generate(workload.Config{
			N: 20, M: 4, MaxSize: 40, Sizes: workload.SizeBimodal,
			Placement: workload.PlaceRandom, Seed: seed,
		})
		s := newSolver(in, nil)
		ic := newIncrementalScan(s)
		for v := in.LowerBound(); v <= in.InitialMakespan(); v++ {
			for p := 0; p < in.M; p++ {
				ic.refresh(p, v)
			}
			r := s.run(v)
			khat, ok := ic.moves()
			if !r.Feasible {
				// run may also reject on the packing bounds that moves()
				// does not check; only compare when both are live.
				if ok && v >= in.MaxSize() && v*int64(in.M) >= in.TotalSize() {
					t.Fatalf("seed %d v %d: run infeasible but k̂ = %d", seed, v, khat)
				}
				continue
			}
			if !ok || khat != int64(r.Removals) {
				t.Fatalf("seed %d v %d: k̂ = %d (ok=%v), run removals = %d",
					seed, v, khat, ok, r.Removals)
			}
		}
	}
}

func TestIncrementalGuarantee(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		in := workload.Generate(workload.Config{
			N: 10, M: 3, MaxSize: 25, Placement: workload.PlaceRandom, Seed: seed,
		})
		for _, k := range []int{0, 2, 5} {
			sol, _ := MPartition(context.Background(), in, k, IncrementalScan, nil)
			if _, err := verify.WithinMoves(in, sol.Assign, k); err != nil {
				t.Fatalf("seed %d k %d: %v", seed, k, err)
			}
			opt, err := exact.Solve(context.Background(), in, k, exact.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if 2*sol.Makespan > 3*opt.Makespan {
				t.Fatalf("seed %d k %d: %d > 1.5·OPT (%d)", seed, k, sol.Makespan, opt.Makespan)
			}
		}
	}
}

func TestIncrementalTightInstances(t *testing.T) {
	in := instance.PartitionTight()
	sol, _ := MPartition(context.Background(), in, instance.PartitionTightK(), IncrementalScan, nil)
	if sol.Makespan != 3 || sol.Moves != 0 {
		t.Fatalf("tight instance: %+v", sol)
	}
	for _, m := range []int{4, 8} {
		g := instance.GreedyTight(m)
		sol, _ := MPartition(context.Background(), g, instance.GreedyTightK(m), IncrementalScan, nil)
		if 2*sol.Makespan > 3*int64(m) {
			t.Fatalf("m=%d: %d > 1.5·OPT", m, sol.Makespan)
		}
	}
}

// Property: the incremental mode equals the binary search mode in
// makespan whenever both find the same target class (they may differ —
// binary search can stop at a non-threshold integer — but both must
// obey the bound and budget).
func TestIncrementalProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		in := workload.Generate(workload.Config{
			N: 12, M: 3, MaxSize: 30, Placement: workload.PlaceSkewed, Seed: seed,
		})
		k := int(kRaw % 13)
		inc, _ := MPartition(context.Background(), in, k, IncrementalScan, nil)
		if _, err := verify.WithinMoves(in, inc.Assign, k); err != nil {
			return false
		}
		bin, _ := MPartition(context.Background(), in, k, BinarySearch, nil)
		// Both are 1.5-approximations of the same optimum; sanity: they
		// are within 1.5× of each other.
		return 2*inc.Makespan <= 3*bin.Makespan && 2*bin.Makespan <= 3*inc.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
