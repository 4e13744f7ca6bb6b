package core

import (
	"context"
	"sort"

	"repro/internal/instance"
	"repro/internal/knapsack"
	"repro/internal/obs"
)

// BudgetOptions tunes the §3.2 arbitrary-cost algorithm.
type BudgetOptions struct {
	// Eps is the knapsack relaxation parameter. When a processor's exact
	// keep-knapsack DP would exceed ExactWork, the rounded-size DP with
	// this slack is used instead, and the final guarantee degrades from
	// 1.5 to 1.5·(1+Eps). Default 0.1.
	Eps float64
	// ExactWork caps the O(n·cap) work of one exact knapsack call.
	// Default 4e6.
	ExactWork int64
}

func (o *BudgetOptions) defaults() {
	if o.Eps <= 0 {
		o.Eps = 0.1
	}
	if o.ExactWork <= 0 {
		o.ExactWork = 4e6
	}
}

// BudgetResult is the outcome of one arbitrary-cost PARTITION run at a
// fixed target makespan.
type BudgetResult struct {
	Feasible bool
	Target   int64
	// Cost is the total relocation cost of the removals the run
	// performs; by the paper's Lemma 7 it never exceeds the cost an
	// optimal solution of makespan ≤ Target incurs.
	Cost     int64
	Solution instance.Solution
}

// PartitionBudgetAt runs the §3.2 variant against a fixed target
// makespan: relocation costs are arbitrary, a_i/b_i become minimum-cost
// removals computed by knapsack, and the most costly large job is the
// one retained. The produced solution has makespan at most
// 1.5·(1+Eps)·target whenever target ≥ OPT, at relocation cost ≤ Cost.
// Probe events and the core.budget_* / core.knapsack_* metrics flow
// into sink; a nil sink disables instrumentation.
func PartitionBudgetAt(in *instance.Instance, target int64, opts BudgetOptions, sink *obs.Sink) BudgetResult {
	if sink == nil {
		return partitionBudgetAt(in, target, opts, nil)
	}
	sink.Count("core.budget_probes", 1)
	if sink.Tracing() {
		sink.Emit("probe_start", obs.Fields{"target": target, "budgeted": true})
	}
	res := partitionBudgetAt(in, target, opts, sink)
	if res.Feasible {
		sink.Count("core.budget_probes_feasible", 1)
		sink.Observe("core.budget_probe_cost", res.Cost)
	}
	if sink.Tracing() {
		f := obs.Fields{"target": target, "budgeted": true, "feasible": res.Feasible}
		if res.Feasible {
			f["cost"] = res.Cost
			f["makespan"] = res.Solution.Makespan
		}
		sink.Emit("probe_result", f)
	}
	return res
}

func partitionBudgetAt(in *instance.Instance, target int64, opts BudgetOptions, sink *obs.Sink) BudgetResult {
	opts.defaults()
	res := BudgetResult{Target: target}
	if target < in.MaxSize() || target*int64(in.M) < in.TotalSize() {
		return res
	}

	jobs := in.Jobs
	isLarge := func(j int) bool { return 2*jobs[j].Size > target }

	type pstate struct {
		larges, smalls []int // job IDs, larges sorted by descending cost
		keepLarge      int   // retained (most costly) large job, or -1
		a, b           int64 // §3.2 minimum removal costs
		c              int64
		aKeep          []int // small jobs kept by the a_i knapsack
		bKeep          []int // jobs kept by the b_i knapsack (IDs)
		bKeepsLarge    bool  // whether bKeep retains the large job
	}
	states := make([]pstate, in.M)
	byProc := instance.JobsOn(in.M, in.Assign)
	totalLarge := 0
	for p := 0; p < in.M; p++ {
		st := &states[p]
		st.keepLarge = -1
		for _, j := range byProc[p] {
			if isLarge(j) {
				st.larges = append(st.larges, j)
			} else {
				st.smalls = append(st.smalls, j)
			}
		}
		totalLarge += len(st.larges)
		sort.Slice(st.larges, func(x, y int) bool {
			if jobs[st.larges[x]].Cost != jobs[st.larges[y]].Cost {
				return jobs[st.larges[x]].Cost > jobs[st.larges[y]].Cost
			}
			return st.larges[x] < st.larges[y]
		})
		if len(st.larges) > 0 {
			st.keepLarge = st.larges[0]
		}
	}
	if totalLarge > in.M {
		return res
	}

	// Keep-knapsack helper: choose the subset of ids to keep with total
	// size ≤ cap minimizing removed cost; returns kept ids and the
	// removed cost.
	solveKeep := func(ids []int, cap int64) (kept []int, removedCost int64) {
		if len(ids) == 0 {
			return nil, 0
		}
		items := make([]knapsack.Item, len(ids))
		var totalCost int64
		for i, j := range ids {
			items[i] = knapsack.Item{Size: jobs[j].Size, Value: jobs[j].Cost}
			totalCost += jobs[j].Cost
		}
		var keepIdx []int
		var keptVal int64
		if knapsack.ExactCost(len(ids), cap) <= opts.ExactWork {
			sink.Count("core.knapsack_exact", 1)
			keepIdx, keptVal = knapsack.MaxKeep(items, cap)
		} else {
			sink.Count("core.knapsack_approx", 1)
			keepIdx, keptVal = knapsack.MaxKeepApprox(items, cap, opts.Eps)
		}
		kept = make([]int, len(keepIdx))
		for i, idx := range keepIdx {
			kept[i] = ids[idx]
		}
		return kept, totalCost - keptVal
	}

	for p := range states {
		st := &states[p]
		// a_i: remove all larges but the most costly, plus smalls so the
		// kept small size fits target/2.
		var extraLargeCost int64
		for _, j := range st.larges {
			if j != st.keepLarge {
				extraLargeCost += jobs[j].Cost
			}
		}
		aKeep, aCost := solveKeep(st.smalls, target/2)
		st.a = extraLargeCost + aCost
		st.aKeep = aKeep

		// b_i: keep any subset (large included) with total size ≤ target,
		// after the Step-1 removal of the extra large jobs.
		ids := append([]int(nil), st.smalls...)
		if st.keepLarge >= 0 {
			ids = append(ids, st.keepLarge)
		}
		bKeep, bCost := solveKeep(ids, target)
		st.b = extraLargeCost + bCost
		st.bKeep = bKeep
		for _, j := range bKeep {
			if j == st.keepLarge && st.keepLarge >= 0 {
				st.bKeepsLarge = true
			}
		}
		st.c = st.a - st.b
	}

	// Select the L_T processors with the smallest c_i, preferring
	// large-holding ones on ties.
	order := make([]int, in.M)
	for p := range order {
		order[p] = p
	}
	sort.Slice(order, func(x, y int) bool {
		sx, sy := &states[order[x]], &states[order[y]]
		if sx.c != sy.c {
			return sx.c < sy.c
		}
		hx, hy := len(sx.larges) > 0, len(sy.larges) > 0
		if hx != hy {
			return hx
		}
		return order[x] < order[y]
	})
	selected := make([]bool, in.M)
	for i := 0; i < totalLarge; i++ {
		selected[order[i]] = true
	}

	assign := append([]int(nil), in.Assign...)
	var totalCost int64
	var displacedLarge, removedSmall []int
	var freeSlots []int
	for p := 0; p < in.M; p++ {
		st := &states[p]
		if selected[p] && st.keepLarge < 0 {
			freeSlots = append(freeSlots, p)
		}
		// Step-1 extra large jobs are displaced on every processor.
		for _, j := range st.larges {
			if j != st.keepLarge {
				displacedLarge = append(displacedLarge, j)
				totalCost += jobs[j].Cost
			}
		}
		if selected[p] {
			keptSet := make(map[int]bool, len(st.aKeep))
			for _, j := range st.aKeep {
				keptSet[j] = true
			}
			for _, j := range st.smalls {
				if !keptSet[j] {
					removedSmall = append(removedSmall, j)
					totalCost += jobs[j].Cost
				}
			}
		} else {
			keptSet := make(map[int]bool, len(st.bKeep))
			for _, j := range st.bKeep {
				keptSet[j] = true
			}
			if st.keepLarge >= 0 && !st.bKeepsLarge {
				displacedLarge = append(displacedLarge, st.keepLarge)
				totalCost += jobs[st.keepLarge].Cost
			}
			for _, j := range st.smalls {
				if !keptSet[j] {
					removedSmall = append(removedSmall, j)
					totalCost += jobs[j].Cost
				}
			}
		}
	}

	if len(displacedLarge) > len(freeSlots) {
		return res
	}
	for i, j := range displacedLarge {
		assign[j] = freeSlots[i]
	}

	// Greedy min-load placement of the removed small jobs, largest first.
	loads := make([]int64, in.M)
	removedSet := make(map[int]bool, len(removedSmall))
	for _, j := range removedSmall {
		removedSet[j] = true
	}
	for j, p := range assign {
		if !removedSet[j] {
			loads[p] += jobs[j].Size
		}
	}
	sort.Slice(removedSmall, func(x, y int) bool {
		if jobs[removedSmall[x]].Size != jobs[removedSmall[y]].Size {
			return jobs[removedSmall[x]].Size > jobs[removedSmall[y]].Size
		}
		return removedSmall[x] < removedSmall[y]
	})
	procs := make([]int32, in.M)
	for p := range procs {
		procs[p] = int32(p)
	}
	instance.HeapInit(procs, loads, false)
	for _, j := range removedSmall {
		p := procs[0]
		assign[j] = int(p)
		loads[p] += jobs[j].Size
		instance.HeapFixRoot(procs, loads, false)
	}

	res.Feasible = true
	res.Cost = totalCost
	res.Solution = instance.NewSolution(in, assign)
	return res
}

// PartitionBudget finds, by integer binary search on the target
// makespan, a solution whose relocation cost is at most budget and whose
// makespan is at most 1.5·(1+Eps)·OPT(budget), where OPT(budget) is the
// best makespan achievable within the budget. The same boundary argument
// as MPartition applies: every target ≥ OPT(budget) is feasible by the
// paper's Lemma 7, so the search terminates at a target ≤ OPT(budget).
// The bisection polls ctx before every budgeted PARTITION probe (each
// probe runs up to m knapsack solves) and returns ctx.Err() when the
// context fires mid-search; a nil sink disables instrumentation.
func PartitionBudget(ctx context.Context, in *instance.Instance, budget int64, opts BudgetOptions, sink *obs.Sink) (instance.Solution, error) {
	if budget < 0 {
		budget = 0
	}
	finish := func(sol instance.Solution, target int64) (instance.Solution, error) {
		if sink.Tracing() {
			sink.Emit("search_result", obs.Fields{
				"budget": budget, "target": target,
				"makespan": sol.Makespan, "moves": sol.Moves, "cost": sol.MoveCost,
			})
		}
		return sol, nil
	}
	feasible := func(v int64) (BudgetResult, bool) {
		r := PartitionBudgetAt(in, v, opts, sink)
		return r, r.Feasible && r.Cost <= budget
	}
	lo, hi := in.LowerBound(), in.InitialMakespan()
	if lo >= hi {
		return finish(instance.NewSolution(in, in.Assign), hi)
	}
	best, ok := feasible(hi)
	if !ok {
		return finish(instance.NewSolution(in, in.Assign), 0)
	}
	for lo < hi {
		// Cancellation point: one knapsack-backed probe per step.
		if err := ctx.Err(); err != nil {
			return instance.Solution{}, err
		}
		mid := lo + (hi-lo)/2
		if r, good := feasible(mid); good {
			best, hi = r, mid
		} else {
			lo = mid + 1
		}
	}
	if best.Solution.Makespan >= in.InitialMakespan() {
		return finish(instance.NewSolution(in, in.Assign), 0)
	}
	return finish(best.Solution, best.Target)
}
