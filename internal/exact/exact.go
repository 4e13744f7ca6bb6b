// Package exact solves small load rebalancing instances optimally by
// depth-first branch and bound. It exists as the reference baseline for
// the approximation-ratio experiments (E2, E4, E5) and as the oracle the
// property tests compare every approximation algorithm against. The
// search is exponential; callers must keep n modest (≈ ≤ 16).
package exact

import (
	"context"
	"sort"

	"repro/internal/instance"
)

// ErrTooLarge is returned when an instance exceeds the configured search
// limits rather than risking an unbounded search. It matches
// instance.ErrSearchLimit.
var ErrTooLarge = instance.SearchLimit("exact: instance exceeds search limits")

// Limits bounds the branch-and-bound search.
type Limits struct {
	// MaxJobs rejects instances with more jobs (default 20).
	MaxJobs int
	// MaxNodes aborts the search after this many expanded nodes
	// (default 20e6); hitting it returns ErrTooLarge.
	MaxNodes int64
}

func (l *Limits) defaults() {
	if l.MaxJobs <= 0 {
		l.MaxJobs = 20
	}
	if l.MaxNodes <= 0 {
		l.MaxNodes = 20_000_000
	}
}

type searcher struct {
	in     *instance.Instance
	ctx    context.Context
	ctxErr error // first ctx error observed; aborts the search
	order  []int // job IDs, decreasing size
	suffix []int64
	loads  []int64
	assign []int
	nodes  int64
	max    int64

	// constraints
	k      int   // max moves (-1: unconstrained)
	budget int64 // max cost (-1: unconstrained)

	best       int64
	bestAssign []int
}

func newSearcher(ctx context.Context, in *instance.Instance, lim Limits) *searcher {
	s := &searcher{in: in, ctx: ctx, k: -1, budget: -1, max: lim.MaxNodes}
	s.order = make([]int, in.N())
	for i := range s.order {
		s.order[i] = i
	}
	sort.Slice(s.order, func(a, b int) bool {
		if in.Jobs[s.order[a]].Size != in.Jobs[s.order[b]].Size {
			return in.Jobs[s.order[a]].Size > in.Jobs[s.order[b]].Size
		}
		return s.order[a] < s.order[b]
	})
	s.suffix = make([]int64, in.N()+1)
	for i := in.N() - 1; i >= 0; i-- {
		s.suffix[i] = s.suffix[i+1] + in.Jobs[s.order[i]].Size
	}
	s.loads = make([]int64, in.M)
	s.assign = make([]int, in.N())
	return s
}

// dfs places order[i:] on processors, minimizing the final makespan
// subject to the move/cost constraints. movesLeft/budgetLeft are the
// remaining allowances (negative means unconstrained).
func (s *searcher) dfs(i int, curMax int64, movesLeft int, budgetLeft int64) bool {
	s.nodes++
	if s.nodes > s.max {
		return false
	}
	// Cancellation point: a deadline or cancel interrupts the search
	// within ~4096 expanded nodes, so Solve returns promptly even on
	// instances that would otherwise branch for seconds.
	if s.nodes&4095 == 0 {
		if err := s.ctx.Err(); err != nil {
			s.ctxErr = err
			return false
		}
	}
	if curMax >= s.best {
		return true // dominated
	}
	if i == s.in.N() {
		s.best = curMax
		s.bestAssign = append(s.bestAssign[:0], s.assign...)
		return true
	}
	// Average lower bound over the remaining work.
	var total int64
	for _, l := range s.loads {
		total += l
	}
	lb := (total + s.suffix[i] + int64(s.in.M) - 1) / int64(s.in.M)
	if lb >= s.best {
		return true
	}

	j := s.order[i]
	home := s.in.Assign[j]
	size := s.in.Jobs[j].Size
	cost := s.in.Jobs[j].Cost

	// Fast path: no moves or budget left ⇒ everything remaining stays
	// home.
	if movesLeft == 0 || (s.budget >= 0 && budgetLeft <= 0 && allPositiveCost(s.in, s.order[i:])) {
		m := curMax
		for _, jj := range s.order[i:] {
			p := s.in.Assign[jj]
			s.loads[p] += s.in.Jobs[jj].Size
			s.assign[jj] = p
			if s.loads[p] > m {
				m = s.loads[p]
			}
		}
		if m < s.best {
			s.best = m
			s.bestAssign = append(s.bestAssign[:0], s.assign...)
		}
		for _, jj := range s.order[i:] {
			s.loads[s.in.Assign[jj]] -= s.in.Jobs[jj].Size
		}
		return true
	}

	// Try home first (free), then every other processor.
	tryProc := func(p int) bool {
		ml, bl := movesLeft, budgetLeft
		if p != home {
			if ml > 0 {
				ml--
			} else if ml == 0 {
				return true // not allowed
			}
			if s.budget >= 0 {
				bl -= cost
				if bl < 0 {
					return true
				}
			}
		}
		s.loads[p] += size
		s.assign[j] = p
		nm := curMax
		if s.loads[p] > nm {
			nm = s.loads[p]
		}
		ok := s.dfs(i+1, nm, ml, bl)
		s.loads[p] -= size
		return ok
	}
	if !tryProc(home) {
		return false
	}
	for p := 0; p < s.in.M; p++ {
		if p == home {
			continue
		}
		if !tryProc(p) {
			return false
		}
	}
	return true
}

func allPositiveCost(in *instance.Instance, ids []int) bool {
	for _, j := range ids {
		if in.Jobs[j].Cost <= 0 {
			return false
		}
	}
	return true
}

// finish converts a completed (or aborted) search into a result: a
// context error if the search was interrupted, ErrTooLarge if it blew
// the node limit, and the best assignment otherwise.
func (s *searcher) finish(completed bool) (instance.Solution, error) {
	if !completed {
		if s.ctxErr != nil {
			return instance.Solution{}, s.ctxErr
		}
		return instance.Solution{}, ErrTooLarge
	}
	if s.bestAssign == nil {
		// The initial assignment is optimal.
		return instance.NewSolution(s.in, s.in.Assign), nil
	}
	return instance.NewSolution(s.in, s.bestAssign), nil
}

// Solve returns an optimal solution of the unit-cost load rebalancing
// problem: minimum makespan over all assignments relocating at most k
// jobs. A zero Limits value applies the defaults. The search honors
// ctx: when the context is cancelled or its deadline expires mid-search,
// Solve returns ctx.Err() promptly.
func Solve(ctx context.Context, in *instance.Instance, k int, lim Limits) (instance.Solution, error) {
	lim.defaults()
	if in.N() > lim.MaxJobs {
		return instance.Solution{}, ErrTooLarge
	}
	if k < 0 {
		k = 0
	}
	s := newSearcher(ctx, in, lim)
	s.k = k
	s.best = in.InitialMakespan() + 1
	return s.finish(s.dfs(0, 0, k, -1))
}

// SolveBudget returns an optimal solution of the arbitrary-cost problem:
// minimum makespan over all assignments of relocation cost at most
// budget. Cancellation follows the same contract as Solve.
func SolveBudget(ctx context.Context, in *instance.Instance, budget int64, lim Limits) (instance.Solution, error) {
	lim.defaults()
	if in.N() > lim.MaxJobs {
		return instance.Solution{}, ErrTooLarge
	}
	if budget < 0 {
		budget = 0
	}
	s := newSearcher(ctx, in, lim)
	s.budget = budget
	s.best = in.InitialMakespan() + 1
	return s.finish(s.dfs(0, 0, -1, budget))
}

// MinMoves returns the minimum number of relocations needed to reach
// makespan ≤ target, or instance.ErrInfeasible when the target is below
// every achievable makespan (§5 move minimization). Cancellation follows
// the same contract as Solve.
func MinMoves(ctx context.Context, in *instance.Instance, target int64, lim Limits) (int, instance.Solution, error) {
	lim.defaults()
	if in.N() > lim.MaxJobs {
		return 0, instance.Solution{}, ErrTooLarge
	}
	if target < in.LowerBound() {
		return 0, instance.Solution{}, instance.ErrInfeasible
	}
	// Iterative deepening on the move budget: the first k whose optimal
	// makespan reaches the target is the answer.
	for k := 0; k <= in.N(); k++ {
		sol, err := Solve(ctx, in, k, lim)
		if err != nil {
			return 0, instance.Solution{}, err
		}
		if sol.Makespan <= target {
			return k, sol, nil
		}
	}
	return 0, instance.Solution{}, instance.ErrInfeasible
}
