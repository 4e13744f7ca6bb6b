// Package conflict implements the Conflict Scheduling problem of §5:
// certain pairs of jobs may not share a processor. Theorem 7 shows the
// problem cannot be approximated within any ratio unless P=NP — even
// deciding whether a conflict-respecting assignment exists encodes
// 3-dimensional matching. This package provides the reduction gadget, an
// exact feasibility/makespan solver, and a greedy-coloring heuristic
// (experiment E10).
package conflict

import (
	"context"
	"errors"
	"sort"

	"repro/internal/hardness"
	"repro/internal/instance"
)

// Instance couples jobs with a conflict graph over them. The base
// instance's initial assignment is irrelevant to feasibility (conflict
// scheduling is a pure assignment problem); it is retained so the
// solution metrics remain well-defined.
type Instance struct {
	Base      *instance.Instance
	Conflicts [][2]int
}

// errSearchLimit is MinMakespan's outcome when the node budget runs out.
var errSearchLimit = instance.SearchLimit("conflict: search limit exceeded")

// adjacency returns per-job conflict neighbor lists.
func (ci *Instance) adjacency() [][]int {
	adj := make([][]int, ci.Base.N())
	for _, c := range ci.Conflicts {
		adj[c[0]] = append(adj[c[0]], c[1])
		adj[c[1]] = append(adj[c[1]], c[0])
	}
	return adj
}

// FromThreeDM builds the Theorem 7 gadget: one machine per triple; m
// pairwise-conflicting "triple jobs"; for every ground element of
// A∪B∪C an "element job" conflicting with every triple job whose triple
// does not contain it; and m−n pairwise-conflicting "dummy jobs" that
// also conflict with every element job. All jobs have unit size. A
// conflict-respecting assignment exists iff the 3DM instance has a
// perfect matching. Job layout: [0,m) triple jobs, [m,m+3n) element
// jobs (A, then B, then C), [m+3n, 2m+2n) dummies.
func FromThreeDM(d *hardness.ThreeDM) (*Instance, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.N
	m := len(d.Triples)
	if m < n {
		return nil, errors.New("conflict: fewer triples than elements (trivially unmatchable)")
	}
	total := m + 3*n + (m - n)
	sizes := make([]int64, total)
	for i := range sizes {
		sizes[i] = 1
	}
	assign := make([]int, total) // all start on machine 0; feasibility ignores it
	base := instance.MustNew(m, sizes, nil, assign)

	ci := &Instance{Base: base}
	tripleJob := func(i int) int { return i }
	elementJob := func(set, e int) int { return m + set*n + e } // set: 0=A,1=B,2=C
	dummyJob := func(i int) int { return m + 3*n + i }

	// Triple jobs pairwise conflict.
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			ci.Conflicts = append(ci.Conflicts, [2]int{tripleJob(i), tripleJob(j)})
		}
	}
	// Element vs non-containing triple jobs.
	for i, tr := range d.Triples {
		for e := 0; e < n; e++ {
			if tr.A != e {
				ci.Conflicts = append(ci.Conflicts, [2]int{elementJob(0, e), tripleJob(i)})
			}
			if tr.B != e {
				ci.Conflicts = append(ci.Conflicts, [2]int{elementJob(1, e), tripleJob(i)})
			}
			if tr.C != e {
				ci.Conflicts = append(ci.Conflicts, [2]int{elementJob(2, e), tripleJob(i)})
			}
		}
	}
	// Dummies pairwise conflict and conflict with every element job.
	for i := 0; i < m-n; i++ {
		for j := i + 1; j < m-n; j++ {
			ci.Conflicts = append(ci.Conflicts, [2]int{dummyJob(i), dummyJob(j)})
		}
		for set := 0; set < 3; set++ {
			for e := 0; e < n; e++ {
				ci.Conflicts = append(ci.Conflicts, [2]int{dummyJob(i), elementJob(set, e)})
			}
		}
	}
	return ci, nil
}

// Feasible searches for any conflict-respecting assignment by
// backtracking, returning it or nil. Jobs are ordered by decreasing
// conflict degree (most-constrained first).
func Feasible(ci *Instance, maxNodes int64) ([]int, bool) {
	if maxNodes <= 0 {
		maxNodes = 20_000_000
	}
	in := ci.Base
	n := in.N()
	adj := ci.adjacency()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if len(adj[order[a]]) != len(adj[order[b]]) {
			return len(adj[order[a]]) > len(adj[order[b]])
		}
		return order[a] < order[b]
	})
	assign := make([]int, n)
	placed := make([]bool, n)
	var nodes int64
	var dfs func(i int) bool
	dfs = func(i int) bool {
		nodes++
		if nodes > maxNodes {
			return false
		}
		if i == n {
			return true
		}
		j := order[i]
	next:
		for p := 0; p < in.M; p++ {
			for _, nb := range adj[j] {
				if placed[nb] && assign[nb] == p {
					continue next
				}
			}
			assign[j] = p
			placed[j] = true
			if dfs(i + 1) {
				return true
			}
			placed[j] = false
		}
		return false
	}
	if !dfs(0) {
		return nil, false
	}
	return assign, true
}

// MinMakespan finds the optimal makespan among conflict-respecting
// assignments (unconstrained moves), or reports infeasibility. The
// search polls ctx every 4096 expanded nodes and returns ctx.Err() when
// it fires.
func MinMakespan(ctx context.Context, ci *Instance, maxNodes int64) (instance.Solution, error) {
	if maxNodes <= 0 {
		maxNodes = 20_000_000
	}
	in := ci.Base
	n := in.N()
	adj := ci.adjacency()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if len(adj[ja]) != len(adj[jb]) {
			return len(adj[ja]) > len(adj[jb])
		}
		if in.Jobs[ja].Size != in.Jobs[jb].Size {
			return in.Jobs[ja].Size > in.Jobs[jb].Size
		}
		return ja < jb
	})
	loads := make([]int64, in.M)
	assign := make([]int, n)
	placed := make([]bool, n)
	best := int64(1) << 62
	var bestAssign []int
	var nodes int64
	var ctxErr error
	var dfs func(i int, curMax int64) bool
	dfs = func(i int, curMax int64) bool {
		nodes++
		if nodes > maxNodes {
			return false
		}
		if nodes&4095 == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return false
			}
		}
		if curMax >= best {
			return true
		}
		if i == n {
			best = curMax
			bestAssign = append(bestAssign[:0], assign...)
			return true
		}
		j := order[i]
	next:
		for p := 0; p < in.M; p++ {
			for _, nb := range adj[j] {
				if placed[nb] && assign[nb] == p {
					continue next
				}
			}
			loads[p] += in.Jobs[j].Size
			assign[j] = p
			placed[j] = true
			nm := curMax
			if loads[p] > nm {
				nm = loads[p]
			}
			ok := dfs(i+1, nm)
			placed[j] = false
			loads[p] -= in.Jobs[j].Size
			if !ok {
				return false
			}
		}
		return true
	}
	if !dfs(0, 0) {
		if ctxErr != nil {
			return instance.Solution{}, ctxErr
		}
		return instance.Solution{}, errSearchLimit
	}
	if bestAssign == nil {
		return instance.Solution{}, instance.ErrInfeasible
	}
	return instance.NewSolution(in, bestAssign), nil
}

// GreedyColor assigns jobs in decreasing conflict degree to the
// least-loaded non-conflicting machine; it may fail where Feasible
// succeeds, which is exactly Theorem 7's point.
func GreedyColor(ci *Instance) ([]int, bool) {
	in := ci.Base
	n := in.N()
	adj := ci.adjacency()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if len(adj[order[a]]) != len(adj[order[b]]) {
			return len(adj[order[a]]) > len(adj[order[b]])
		}
		return order[a] < order[b]
	})
	loads := make([]int64, in.M)
	assign := make([]int, n)
	placed := make([]bool, n)
	for _, j := range order {
		bestP := -1
	next:
		for p := 0; p < in.M; p++ {
			for _, nb := range adj[j] {
				if placed[nb] && assign[nb] == p {
					continue next
				}
			}
			if bestP < 0 || loads[p] < loads[bestP] {
				bestP = p
			}
		}
		if bestP < 0 {
			return nil, false
		}
		assign[j] = bestP
		placed[j] = true
		loads[bestP] += in.Jobs[j].Size
	}
	return assign, true
}
