package rebalance_test

import (
	"context"
	"fmt"

	"repro"
)

// A small farm: server 0 is overloaded; two moves fix it.
func demoInstance() *rebalance.Instance {
	return rebalance.MustNew(3,
		[]int64{9, 7, 6, 5, 4, 3},
		nil,
		[]int{0, 0, 0, 1, 1, 2})
}

func ExamplePartition() {
	in := demoInstance()
	sol := rebalance.Partition(in, 2) // M-PARTITION, at most 2 moves
	fmt.Println(in.InitialMakespan(), "->", sol.Makespan, "with", sol.Moves, "moves")
	// Output: 22 -> 13 with 1 moves
}

func ExampleGreedy() {
	in := demoInstance()
	sol := rebalance.Greedy(in, 2)
	fmt.Println(sol.Makespan, sol.Moves)
	// Output: 13 1
}

func ExampleExact() {
	in := demoInstance()
	sol, err := rebalance.Exact(in, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.Makespan)
	// Output: 13
}

func ExamplePartitionBudget() {
	// Moving the size-9 job costs 10; everything else costs 1. With a
	// budget of 2 the big job stays put — the result lands within the
	// 1.5·(1+ε) guarantee of the budget optimum (9).
	in := rebalance.MustNew(2,
		[]int64{9, 5, 4},
		[]int64{10, 1, 1},
		[]int{0, 0, 0})
	sol := rebalance.PartitionBudget(in, 2)
	fmt.Println(sol.Makespan, "cost", sol.MoveCost)
	// Output: 13 cost 1
}

func ExampleFrontier() {
	in := demoInstance()
	pts, err := rebalance.Frontier(context.Background(), in, []int{0, 1, 2}, rebalance.FrontierOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, pt := range pts {
		fmt.Println(pt.K, pt.Makespan)
	}
	// Output:
	// 0 22
	// 1 13
	// 2 13
}

func ExampleCheckMoves() {
	in := demoInstance()
	sol := rebalance.Partition(in, 2)
	fmt.Println(rebalance.CheckMoves(in, sol, 2) == nil)
	// Output: true
}

func ExampleMinMovesBicriteria() {
	// Three size-3 jobs on one of two processors: reaching load 6 takes
	// one move, and the bicriteria result uses no more.
	in := rebalance.MustNew(2, []int64{3, 3, 3}, nil, []int{0, 0, 0})
	sol, moves, ok := rebalance.MinMovesBicriteria(in, 6)
	fmt.Println(ok, moves, sol.Makespan)
	// Output: true 1 6
}

func ExampleNewBalancer() {
	ctx := context.Background()
	b, _ := rebalance.NewBalancer(2)
	for id, size := range []int64{8, 5, 4} {
		_, _ = b.Apply(ctx, rebalance.BalancerDelta{Op: rebalance.Arrive, Job: id + 1, Size: size, Cost: 1, Proc: 0})
	}
	moves, _ := b.Rebalance(ctx, 1)
	fmt.Println(len(moves), b.Makespan())
	// Output: 1 9
}

func ExampleGreedyTight() {
	// The Theorem 1 family: adversarial GREEDY reproduces the initial
	// configuration while the optimum is m.
	m := 8
	in := rebalance.GreedyTight(m)
	adv := rebalance.GreedyWithOrder(in, rebalance.GreedyTightK(m), rebalance.OrderSmallestFirst)
	fmt.Println(adv.Makespan, "vs optimal", m)
	// Output: 15 vs optimal 8
}
