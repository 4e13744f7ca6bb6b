package rebalance

import (
	"context"
	"errors"
	"testing"
)

func TestWorkloadAPIGenerate(t *testing.T) {
	in := Generate(WorkloadConfig{
		N: 30, M: 4, Sizes: SizeZipf, Placement: PlaceSkewed, Costs: CostProportional, Seed: 2,
	})
	if in.N() != 30 || in.M != 4 {
		t.Fatalf("shape %s", in)
	}
	// Determinism through the public API.
	in2 := Generate(WorkloadConfig{
		N: 30, M: 4, Sizes: SizeZipf, Placement: PlaceSkewed, Costs: CostProportional, Seed: 2,
	})
	for j := range in.Jobs {
		if in.Jobs[j] != in2.Jobs[j] || in.Assign[j] != in2.Assign[j] {
			t.Fatal("non-deterministic generation")
		}
	}
}

func TestTightInstancesAPI(t *testing.T) {
	m := 6
	in := GreedyTight(m)
	adv := GreedyWithOrder(in, GreedyTightK(m), OrderSmallestFirst)
	if adv.Makespan != int64(2*m-1) {
		t.Fatalf("adversarial makespan %d", adv.Makespan)
	}
	pt := PartitionTight()
	sol := Partition(pt, 1)
	if sol.Makespan != 3 {
		t.Fatalf("tight PARTITION makespan %d, want 3", sol.Makespan)
	}
}

func TestPartitionWithModeAgree(t *testing.T) {
	in := Generate(WorkloadConfig{N: 40, M: 4, Seed: 8, Placement: PlaceSkewed})
	a := PartitionWithMode(in, 5, BinarySearch)
	b := PartitionWithMode(in, 5, ThresholdScan)
	if err := CheckMoves(in, a, 5); err != nil {
		t.Fatal(err)
	}
	if err := CheckMoves(in, b, 5); err != nil {
		t.Fatal(err)
	}
}

func TestMinMovesAPI(t *testing.T) {
	in := MustNew(2, []int64{3, 3, 3}, nil, []int{0, 0, 0})
	k, sol, err := MinMoves(in, 6)
	if err != nil || k != 1 || sol.Makespan > 6 {
		t.Fatalf("k=%d err=%v sol=%+v", k, err, sol)
	}
	if _, _, err := MinMoves(in, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestMinMovesBicriteriaAPI(t *testing.T) {
	in := MustNew(2, []int64{3, 3, 3}, nil, []int{0, 0, 0})
	sol, moves, ok := MinMovesBicriteria(in, 6)
	if !ok {
		t.Fatal("reachable target rejected")
	}
	if moves > 1 {
		t.Fatalf("moves %d exceed exact minimum 1", moves)
	}
	if sol.Makespan > 9 {
		t.Fatalf("makespan %d > 1.5·6", sol.Makespan)
	}
}

func TestMoveMinGadgetAPI(t *testing.T) {
	in, target := MoveMinGadget([]int64{5, 4, 3, 2})
	if target != 7 || in.M != 2 {
		t.Fatalf("gadget target=%d m=%d", target, in.M)
	}
	if _, _, err := MinMoves(in, target); err != nil {
		t.Fatalf("partitionable gadget infeasible: %v", err)
	}
}

func TestConstrainedAPIs(t *testing.T) {
	in := MustNew(2, []int64{4, 3, 2}, nil, []int{0, 0, 0})
	ci := &ConstrainedInstance{Base: in, Allowed: [][]int{{0}, nil, nil}}
	sol, err := ConstrainedExact(ci, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Makespan != 5 {
		t.Fatalf("makespan %d, want 5", sol.Makespan)
	}
	g := ConstrainedGreedy(ci)
	if g.Makespan < sol.Makespan {
		t.Fatal("greedy beat exact")
	}
	bl, err := ConstrainedBaseline(in, ci.Allowed, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Makespan > 2*sol.Makespan {
		t.Fatalf("baseline %d > 2·OPT", bl.Makespan)
	}
}

func TestConflictAPIs(t *testing.T) {
	in := MustNew(2, []int64{1, 1, 1}, nil, []int{0, 0, 0})
	ci := &ConflictInstance{Base: in, Conflicts: [][2]int{{0, 1}}}
	if _, ok := ConflictFeasible(ci); !ok {
		t.Fatal("feasible conflict instance rejected")
	}
	sol, err := ConflictMinMakespan(ci)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Makespan != 2 {
		t.Fatalf("makespan %d, want 2", sol.Makespan)
	}
}

func TestGadgetAPIs(t *testing.T) {
	yes := &ThreeDM{N: 1, Triples: []ThreeDMTriple{{A: 0, B: 0, C: 0}}}
	cg, target, err := ConstrainedGadget(yes)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ConstrainedExact(cg, cg.Base.N())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Makespan != target {
		t.Fatalf("YES gadget makespan %d, want %d", sol.Makespan, target)
	}
	fg, err := ConflictGadget(yes)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ConflictFeasible(fg); !ok {
		t.Fatal("YES conflict gadget infeasible")
	}
}

func TestBalancerAPI(t *testing.T) {
	if _, err := NewBalancer(0); err == nil {
		t.Fatal("NewBalancer(0) accepted")
	}
	b, err := NewBalancer(3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for id := 0; id < 20; id++ {
		if _, err := b.Apply(ctx, BalancerDelta{Op: Arrive, Job: id, Size: int64(1 + id%7), Cost: 1, Proc: 0}); err != nil {
			t.Fatal(err)
		}
	}
	before := b.Makespan()
	moves, err := b.Rebalance(ctx, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) > 6 || b.Makespan() >= before {
		t.Fatalf("rebalance: %d moves, %d -> %d", len(moves), before, b.Makespan())
	}
}
