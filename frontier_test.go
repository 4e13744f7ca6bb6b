package rebalance

import (
	"context"
	"errors"

	"testing"
)

// TestDefaultFrontierKsEndpoint pins the default sweep schedule: it
// must start at 0, be strictly increasing, and always end at k = n —
// the point where the frontier bottoms out at the unconstrained
// optimum. (The old doubling ladder stopped short of n whenever n was
// not a power of two.)
func TestDefaultFrontierKsEndpoint(t *testing.T) {
	for n := 1; n <= 64; n++ {
		ks := DefaultFrontierKs(n)
		if ks[0] != 0 {
			t.Fatalf("n=%d: ladder starts at %d, want 0", n, ks[0])
		}
		if last := ks[len(ks)-1]; last != n {
			t.Fatalf("n=%d: ladder ends at %d, want the endpoint n", n, last)
		}
		for i := 1; i < len(ks); i++ {
			if ks[i] <= ks[i-1] {
				t.Fatalf("n=%d: ladder not strictly increasing: %v", n, ks)
			}
		}
	}
	if ks := DefaultFrontierKs(0); len(ks) != 1 || ks[0] != 0 {
		t.Fatalf("n=0: ladder %v, want [0]", ks)
	}
}

func TestFrontierBoundsAndOrder(t *testing.T) {
	in := Generate(WorkloadConfig{
		N: 60, M: 6, Sizes: SizeZipf, Placement: PlaceOneHot, Seed: 5,
	})
	ks := []int{0, 1, 2, 4, 8, 16, 32, 60}
	pts, err := Frontier(context.Background(), in, ks, FrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ks) {
		t.Fatalf("got %d points", len(pts))
	}
	for i, pt := range pts {
		if pt.K != ks[i] {
			t.Fatalf("point %d has K=%d, want %d (order must be preserved)", i, pt.K, ks[i])
		}
		if pt.Moves > pt.K {
			t.Fatalf("K=%d used %d moves", pt.K, pt.Moves)
		}
		if pt.Makespan < in.LowerBound() || pt.Makespan > in.InitialMakespan() {
			t.Fatalf("K=%d makespan %d outside [%d, %d]",
				pt.K, pt.Makespan, in.LowerBound(), in.InitialMakespan())
		}
	}
	// k=0 pins the initial makespan; the largest budget must improve on
	// a one-hot placement.
	if pts[0].Makespan != in.InitialMakespan() {
		t.Fatalf("K=0 makespan %d != initial %d", pts[0].Makespan, in.InitialMakespan())
	}
	if pts[len(pts)-1].Makespan >= pts[0].Makespan {
		t.Fatal("large budget did not improve a one-hot placement")
	}
}

func TestFrontierMatchesSequentialRuns(t *testing.T) {
	in := Generate(WorkloadConfig{
		N: 40, M: 4, Sizes: SizeUniform, Placement: PlaceSkewed, Seed: 9,
	})
	ks := []int{0, 3, 7, 15}
	pts, err := Frontier(context.Background(), in, ks, FrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		seq := PartitionWithMode(in, k, IncrementalScan)
		if pts[i].Makespan != seq.Makespan || pts[i].Moves != seq.Moves {
			t.Fatalf("k=%d: parallel (%d,%d) != sequential (%d,%d)",
				k, pts[i].Makespan, pts[i].Moves, seq.Makespan, seq.Moves)
		}
	}
}

// TestFrontierWorkersEquivalence pins FrontierOptions.Workers'
// determinism contract: every pool size yields deep-equal points in ks
// order — each k is an independent solve landed at its own index, so
// scheduling cannot reorder or perturb the curve.
func TestFrontierWorkersEquivalence(t *testing.T) {
	in := Generate(WorkloadConfig{
		N: 80, M: 8, Sizes: SizeZipf, Placement: PlaceSkewed, Seed: 13,
	})
	ks := []int{0, 1, 2, 5, 10, 20, 40, 80}
	seq, err := Frontier(context.Background(), in, ks, FrontierOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 4, 8} {
		got, err := Frontier(context.Background(), in, ks, FrontierOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(seq) {
			t.Fatalf("workers=%d: %d points, want %d", w, len(got), len(seq))
		}
		for i := range got {
			if got[i] != seq[i] {
				t.Fatalf("workers=%d point %d: %+v != sequential %+v", w, i, got[i], seq[i])
			}
		}
	}
}

func TestFrontierEmpty(t *testing.T) {
	in := MustNew(2, []int64{1, 2}, nil, []int{0, 1})
	if pts, _ := Frontier(context.Background(), in, nil, FrontierOptions{}); len(pts) != 0 {
		t.Fatalf("empty ks produced %d points", len(pts))
	}
}

func TestFrontierWithinBoundOfExact(t *testing.T) {
	in := Generate(WorkloadConfig{
		N: 10, M: 3, MaxSize: 25, Placement: PlaceRandom, Seed: 3,
	})
	ks := []int{0, 1, 2, 3, 5, 10}
	pts, err := Frontier(context.Background(), in, ks, FrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		opt, err := Exact(in, k)
		if err != nil {
			t.Fatal(err)
		}
		if 2*pts[i].Makespan > 3*opt.Makespan {
			t.Fatalf("k=%d: frontier %d > 1.5·OPT (%d)", k, pts[i].Makespan, opt.Makespan)
		}
	}
}

// TestFrontierCtxCanceled pins the sweep's cancellation contract: an
// already-canceled context aborts the sweep with ctx.Err() and no
// points.
func TestFrontierCtxCanceled(t *testing.T) {
	in := Generate(WorkloadConfig{
		N: 60, M: 6, Sizes: SizeZipf, Placement: PlaceOneHot, Seed: 5,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := Frontier(ctx, in, []int{0, 1, 2, 4}, FrontierOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if pts != nil {
		t.Fatalf("canceled sweep returned points: %v", pts)
	}
}
