package rebalance

import (
	"context"
	"testing"
)

// Large-scale stress checks, skipped under -short: the fast algorithms
// at sizes the paper's O(n log n) claims target, with invariants that
// do not need an exact reference.
func TestStressLargeInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	for _, tc := range []struct {
		n, m, k int
		sizes   SizeDist
		place   PlacementDist
	}{
		{100_000, 64, 10_000, SizeZipf, PlaceSkewed},
		{50_000, 16, 500, SizeUniform, PlaceOneHot},
		{200_000, 128, 20_000, SizeBimodal, PlaceRandom},
	} {
		in := Generate(WorkloadConfig{
			N: tc.n, M: tc.m, Sizes: tc.sizes, Placement: tc.place, Seed: 99,
		})
		for _, mode := range []SearchMode{BinarySearch, IncrementalScan} {
			sol := PartitionWithMode(in, tc.k, mode)
			if err := CheckMoves(in, sol, tc.k); err != nil {
				t.Fatalf("n=%d mode=%d: %v", tc.n, mode, err)
			}
			if sol.Makespan < in.LowerBound() || sol.Makespan > in.InitialMakespan() {
				t.Fatalf("n=%d mode=%d: makespan %d outside [%d, %d]",
					tc.n, mode, sol.Makespan, in.LowerBound(), in.InitialMakespan())
			}
		}
		g := Greedy(in, tc.k)
		if err := CheckMoves(in, g, tc.k); err != nil {
			t.Fatalf("n=%d greedy: %v", tc.n, err)
		}
	}
}

// The two ladder modes must agree at scale, not just on the small
// instances of the core package's tests.
func TestStressLadderAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	in := Generate(WorkloadConfig{
		N: 5_000, M: 32, Sizes: SizeZipf, Placement: PlaceSkewed, Seed: 31,
	})
	k := 400
	naive := PartitionWithMode(in, k, ThresholdScan)
	inc := PartitionWithMode(in, k, IncrementalScan)
	if naive.Makespan != inc.Makespan || naive.Moves != inc.Moves {
		t.Fatalf("ladders disagree at n=5000: naive (%d,%d) vs incremental (%d,%d)",
			naive.Makespan, naive.Moves, inc.Makespan, inc.Moves)
	}
}

// The parallel frontier under heavy concurrency.
func TestStressFrontierParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	in := Generate(WorkloadConfig{
		N: 20_000, M: 32, Sizes: SizeZipf, Placement: PlaceOneHot, Seed: 13,
	})
	ks := make([]int, 24)
	for i := range ks {
		ks[i] = i * 800
	}
	pts, err := Frontier(context.Background(), in, ks, FrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if pt.K != ks[i] || pt.Moves > pt.K {
			t.Fatalf("point %d: %+v", i, pt)
		}
	}
	// More budget never hurts the frontier's envelope by more than the
	// 1.5 guarantee allows: every point is within 1.5× the best point.
	best := pts[len(pts)-1].Makespan
	for _, pt := range pts[1:] {
		if pt.Makespan < best {
			best = pt.Makespan
		}
	}
	for _, pt := range pts[len(pts)/2:] {
		if 2*pt.Makespan > 3*best {
			t.Fatalf("late frontier point %d/%d far above envelope %d", pt.K, pt.Makespan, best)
		}
	}
}
