package greedy

import (
	"testing"
	"testing/quick"

	"repro/internal/instance"
	"repro/internal/verify"
	"repro/internal/workload"
)

func TestZeroMovesIsIdentity(t *testing.T) {
	in := instance.MustNew(2, []int64{5, 3, 2}, nil, []int{0, 0, 1})
	sol := Rebalance(in, 0, OrderRemoval, nil)
	if sol.Moves != 0 || sol.Makespan != in.InitialMakespan() {
		t.Fatalf("k=0 changed the assignment: %+v", sol)
	}
}

func TestSimpleImprovement(t *testing.T) {
	// 4 and 3 on processor 0, nothing on processor 1. One move should
	// take the 4 to processor 1 for makespan 4... removal takes largest
	// (4), placement puts it on the empty processor.
	in := instance.MustNew(2, []int64{4, 3}, nil, []int{0, 0})
	sol := Rebalance(in, 1, OrderRemoval, nil)
	if sol.Makespan != 4 {
		t.Fatalf("makespan = %d, want 4", sol.Makespan)
	}
	if sol.Moves != 1 {
		t.Fatalf("moves = %d, want 1", sol.Moves)
	}
}

func TestJobReturningHomeIsNotAMove(t *testing.T) {
	// Perfectly balanced: the removed job goes right back.
	in := instance.MustNew(2, []int64{5, 5}, nil, []int{0, 1})
	sol := Rebalance(in, 1, OrderRemoval, nil)
	if sol.Moves != 0 {
		t.Fatalf("moves = %d, want 0 (job returned home)", sol.Moves)
	}
	if sol.Makespan != 5 {
		t.Fatalf("makespan = %d, want 5", sol.Makespan)
	}
}

func TestKLargerThanN(t *testing.T) {
	in := instance.MustNew(3, []int64{6, 5, 4, 3, 2, 1}, nil, []int{0, 0, 0, 0, 0, 0})
	sol := Rebalance(in, 100, OrderLargestFirst, nil)
	if _, err := verify.WithinMoves(in, sol.Assign, 100); err != nil {
		t.Fatal(err)
	}
	// LPT on {6,5,4,3,2,1} over 3 processors achieves 7 = optimum.
	if sol.Makespan != 7 {
		t.Fatalf("makespan = %d, want 7", sol.Makespan)
	}
}

func TestTheorem1TightInstance(t *testing.T) {
	for _, m := range []int{3, 5, 10, 20} {
		in := instance.GreedyTight(m)
		k := instance.GreedyTightK(m)

		// Adversarial order reproduces the initial configuration:
		// makespan 2m−1 against OPT = m.
		adv := Rebalance(in, k, OrderSmallestFirst, nil)
		if adv.Makespan != int64(2*m-1) {
			t.Errorf("m=%d adversarial makespan = %d, want %d", m, adv.Makespan, 2*m-1)
		}
		if _, err := verify.WithinMoves(in, adv.Assign, k); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}

		// The friendly order fixes it: big job placed first lands on a
		// light processor.
		good := Rebalance(in, k, OrderLargestFirst, nil)
		if good.Makespan >= adv.Makespan {
			t.Errorf("m=%d friendly order %d not better than adversarial %d", m, good.Makespan, adv.Makespan)
		}

		// Both stay within the Theorem 1 bound (2 − 1/m)·OPT with OPT = m.
		bound := int64(2*m - 1)
		if adv.Makespan > bound || good.Makespan > bound {
			t.Errorf("m=%d exceeded (2−1/m)·OPT bound", m)
		}
	}
}

func TestNeverWorseThanBoundOnRandom(t *testing.T) {
	// GREEDY's makespan is at most (2 − 1/m)·OPT ≤ (2 − 1/m)·LB is not
	// guaranteed (OPT ≥ LB), but makespan ≥ LB always; check the solution
	// verifies and never exceeds the initial makespan by more than the
	// largest job (a loose sanity envelope for the heap logic).
	for seed := uint64(0); seed < 20; seed++ {
		in := workload.Generate(workload.Config{
			N: 80, M: 6, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: seed,
		})
		k := 10
		sol := Rebalance(in, k, OrderRemoval, nil)
		if _, err := verify.WithinMoves(in, sol.Assign, k); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Makespan > in.InitialMakespan()+in.MaxSize() {
			t.Fatalf("seed %d: makespan %d blew past initial %d", seed, sol.Makespan, in.InitialMakespan())
		}
	}
}

func TestImprovesSkewedLoad(t *testing.T) {
	in := workload.Generate(workload.Config{
		N: 200, M: 8, Sizes: workload.SizeUniform, Placement: workload.PlaceOneHot, Seed: 3,
	})
	sol := Rebalance(in, 150, OrderLargestFirst, nil)
	if sol.Makespan >= in.InitialMakespan()/2 {
		t.Fatalf("one-hot load not substantially improved: %d -> %d", in.InitialMakespan(), sol.Makespan)
	}
}

func TestDeterministic(t *testing.T) {
	in := workload.Generate(workload.Config{N: 50, M: 4, Seed: 9})
	a := Rebalance(in, 7, OrderRemoval, nil)
	b := Rebalance(in, 7, OrderRemoval, nil)
	for j := range a.Assign {
		if a.Assign[j] != b.Assign[j] {
			t.Fatal("non-deterministic output")
		}
	}
}

func TestInstanceNotMutated(t *testing.T) {
	in := workload.Generate(workload.Config{N: 30, M: 3, Seed: 1})
	before := in.Clone()
	Rebalance(in, 5, OrderLargestFirst, nil)
	for j := range in.Assign {
		if in.Assign[j] != before.Assign[j] {
			t.Fatal("Rebalance mutated the input instance")
		}
	}
}

// Property: for random instances and budgets, GREEDY's output verifies,
// respects k, and its makespan is at least the packing lower bound.
func TestGreedyProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8, ordRaw uint8) bool {
		in := workload.Generate(workload.Config{
			N: 40, M: 5, Sizes: workload.SizeBimodal, Placement: workload.PlaceRandom, Seed: seed,
		})
		k := int(kRaw % 41)
		order := Order(ordRaw % 3)
		sol := Rebalance(in, k, order, nil)
		if _, err := verify.WithinMoves(in, sol.Assign, k); err != nil {
			return false
		}
		return sol.Makespan >= in.LowerBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
