package core

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/instance"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Both search modes must return the ladder oracle's solution: the
// incremental scan and the oracle walk the identical threshold set and
// accept the first rung whose move count fits, and the bisection lands
// on that rung's behaviour class, so PARTITION runs with the same
// removals at the accepted target of each.
func TestIncrementalMatchesNaiveLadder(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		in := workload.Generate(workload.Config{
			N: 25, M: 2 + int(seed%4), MaxSize: 60,
			Sizes:     workload.SizeDist(seed % 3),
			Placement: workload.Placement(seed % 4),
			Seed:      seed,
		})
		for _, k := range []int{0, 1, 3, 8} {
			assertModesAgree(t, in, k)
		}
	}
}

// The two modes and the oracle agree on a skewed n=40 instance with
// the default workload sizes.
func TestPartitionWithModeAgree(t *testing.T) {
	assertModesAgree(t, workload.Generate(workload.Config{N: 40, M: 4, Seed: 8, Placement: workload.PlaceSkewed}), 5)
}

// assertModesAgree fails unless BinarySearch and IncrementalScan both
// return the ladder oracle's assignment, makespan and move count.
func assertModesAgree(t *testing.T, in *instance.Instance, k int) {
	t.Helper()
	want := ladderScan(in, k)
	for _, mode := range []SearchMode{BinarySearch, IncrementalScan} {
		sol, _ := MPartition(context.Background(), in, k, mode, nil)
		if !slices.Equal(sol.Assign, want.Assign) || sol.Makespan != want.Makespan || sol.Moves != want.Moves {
			t.Fatalf("n=%d m=%d k=%d: %s makespan %d moves %d, ladder oracle makespan %d moves %d (assignments equal: %v)",
				in.N(), in.M, k, mode, sol.Makespan, sol.Moves, want.Makespan, want.Moves, slices.Equal(sol.Assign, want.Assign))
		}
	}
}

// The two modes and the oracle must also agree at scale, not just on
// small instances.
func TestStressLadderAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	in := workload.Generate(workload.Config{
		N: 5_000, M: 32, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 31,
	})
	assertModesAgree(t, in, 400)
}

// TestScanCountsMatchRecount is the differential twin of the count the
// incremental scan shares with the count probe: at every threshold the
// walk visits, the solver's count arrays, refreshed only for the
// processors whose events fall there, must equal a recount of every
// processor at that threshold, and k̂ read from them must equal
// probeCount's removals there.
func TestScanCountsMatchRecount(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		in := workload.Generate(workload.Config{
			N: 8 + int(seed)*2, M: 2 + int(seed%6), MaxSize: 60,
			Sizes:     workload.SizeDist(seed % 3),
			Placement: workload.Placement(seed % 4),
			Seed:      seed,
		})
		s, ref := newSolver(in, nil), newSolver(in, nil)
		visits := 0
		_, _, err := s.walkThresholds(context.Background(), func(v int64) bool {
			visits++
			for p := 0; p < in.M; p++ {
				ref.rowCounts(p, v)
			}
			if !slices.Equal(s.largeCnt, ref.largeCnt) || !slices.Equal(s.aArr, ref.aArr) ||
				!slices.Equal(s.bArr, ref.bArr) || !slices.Equal(s.cArr, ref.cArr) {
				t.Fatalf("seed %d v %d: scan counts t=%v a=%v b=%v c=%v, recount t=%v a=%v b=%v c=%v", seed, v,
					s.largeCnt, s.aArr, s.bArr, s.cArr, ref.largeCnt, ref.aArr, ref.bArr, ref.cArr)
			}
			ok := s.countRemovals() && v >= in.MaxSize() && v*int64(in.M) >= in.TotalSize()
			if want := ref.probeCount(v); ok != want || ok && s.lastRemovals != ref.lastRemovals {
				t.Fatalf("seed %d v %d: k̂ %d (ok=%v), probeCount %d (ok=%v)",
					seed, v, s.lastRemovals, ok, ref.lastRemovals, want)
			}
			return false
		})
		if err != nil || visits < 2 {
			t.Fatalf("seed %d: walk visited %d thresholds, err %v", seed, visits, err)
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

// Property: on random skewed instances the incremental mode stays
// within the budget and returns the binary search's solution.
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
		return slices.Equal(inc.Assign, bin.Assign) && inc.Makespan == bin.Makespan && inc.Moves == bin.Moves
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
