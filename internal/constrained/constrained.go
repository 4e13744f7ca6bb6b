// Package constrained implements the Constrained Load Rebalancing
// problem of §5: each job may only reside on a specified subset of the
// machines. Corollary 1 shows no polynomial algorithm approximates it
// below 3/2 unless P=NP, via the Theorem 6 reduction from 3-dimensional
// matching; this package provides the gadget, an exact solver, and an
// LPT-style heuristic (experiment E10).
package constrained

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/hardness"
	"repro/internal/instance"
)

// Instance couples a rebalancing instance with per-job allowed machine
// sets; a nil entry means the job is unrestricted.
type Instance struct {
	Base    *instance.Instance
	Allowed [][]int
}

// Validate checks that the allowed sets are well-formed and that each
// job's initial machine is allowed (a job left unmoved must be legal).
func (ci *Instance) Validate() error {
	if err := ci.Base.Validate(); err != nil {
		return err
	}
	if len(ci.Allowed) != ci.Base.N() {
		return fmt.Errorf("constrained: %d allowed sets for %d jobs", len(ci.Allowed), ci.Base.N())
	}
	for j, set := range ci.Allowed {
		if set == nil {
			continue
		}
		if len(set) == 0 {
			return fmt.Errorf("constrained: job %d has empty allowed set", j)
		}
		ok := false
		for _, p := range set {
			if p < 0 || p >= ci.Base.M {
				return fmt.Errorf("constrained: job %d allows invalid machine %d", j, p)
			}
			if p == ci.Base.Assign[j] {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("constrained: job %d starts on disallowed machine %d", j, ci.Base.Assign[j])
		}
	}
	return nil
}

func (ci *Instance) allowedOf(j int) []int {
	if ci.Allowed[j] != nil {
		return ci.Allowed[j]
	}
	all := make([]int, ci.Base.M)
	for p := range all {
		all[p] = p
	}
	return all
}

// ErrUncovered is returned by FromThreeDM when some ground element
// appears in no triple; such instances are trivially unmatchable and
// yield no well-formed gadget.
var ErrUncovered = errors.New("constrained: 3DM element uncovered by every triple")

// errSearchLimit is Exact's outcome when the node budget runs out.
var errSearchLimit = instance.SearchLimit("constrained: search limit exceeded")

// FromThreeDM builds the Theorem 6 / Corollary 1 gadget. Machines are
// the triples. For every element of B and C there is a unit-size job
// allowed exactly on the machines whose triple contains it; for every
// type j (triples sharing a_j) there are t_j − 1 dummy jobs of size 2
// allowed exactly on type-j machines. The returned target makespan 2 is
// achievable (with unlimited moves) iff the 3DM instance has a perfect
// matching; the next achievable value is 3, giving the 3/2 gap.
func FromThreeDM(d *hardness.ThreeDM) (*Instance, int64, error) {
	if err := d.Validate(); err != nil {
		return nil, 0, err
	}
	n := d.N
	m := len(d.Triples)
	byB := make([][]int, n)
	byC := make([][]int, n)
	byType := make([][]int, n)
	for i, tr := range d.Triples {
		byB[tr.B] = append(byB[tr.B], i)
		byC[tr.C] = append(byC[tr.C], i)
		byType[tr.A] = append(byType[tr.A], i)
	}
	for e := 0; e < n; e++ {
		if len(byB[e]) == 0 || len(byC[e]) == 0 || len(byType[e]) == 0 {
			return nil, 0, ErrUncovered
		}
	}
	var sizes []int64
	var allowed [][]int
	for e := 0; e < n; e++ { // B-element jobs
		sizes = append(sizes, 1)
		allowed = append(allowed, byB[e])
	}
	for e := 0; e < n; e++ { // C-element jobs
		sizes = append(sizes, 1)
		allowed = append(allowed, byC[e])
	}
	for j := 0; j < n; j++ { // dummy jobs, t_j − 1 of size 2 per type
		for d := 0; d < len(byType[j])-1; d++ {
			sizes = append(sizes, 2)
			allowed = append(allowed, byType[j])
		}
	}
	assign := make([]int, len(sizes))
	for j := range assign {
		assign[j] = allowed[j][0]
	}
	base := instance.MustNew(m, sizes, nil, assign)
	ci := &Instance{Base: base, Allowed: allowed}
	if err := ci.Validate(); err != nil {
		return nil, 0, err
	}
	return ci, 2, nil
}

// Exact returns the optimal makespan over assignments respecting the
// allowed sets and relocating at most k jobs, by branch and bound. The
// search polls ctx every 4096 expanded nodes and returns ctx.Err() when
// it fires.
func Exact(ctx context.Context, ci *Instance, k int, maxNodes int64) (instance.Solution, error) {
	in := ci.Base
	n := in.N()
	if maxNodes <= 0 {
		maxNodes = 20_000_000
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if in.Jobs[order[a]].Size != in.Jobs[order[b]].Size {
			return in.Jobs[order[a]].Size > in.Jobs[order[b]].Size
		}
		return order[a] < order[b]
	})
	loads := make([]int64, in.M)
	assign := make([]int, n)
	best := in.InitialMakespan() + 1
	var bestAssign []int
	var nodes int64
	var ctxErr error
	var dfs func(i int, curMax int64, movesLeft int) bool
	dfs = func(i int, curMax int64, movesLeft int) bool {
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
		home := in.Assign[j]
		for _, p := range ci.allowedOf(j) {
			if p != home && movesLeft == 0 {
				continue
			}
			ml := movesLeft
			if p != home {
				ml--
			}
			loads[p] += in.Jobs[j].Size
			assign[j] = p
			nm := curMax
			if loads[p] > nm {
				nm = loads[p]
			}
			if !dfs(i+1, nm, ml) {
				loads[p] -= in.Jobs[j].Size
				return false
			}
			loads[p] -= in.Jobs[j].Size
		}
		return true
	}
	if !dfs(0, 0, k) {
		if ctxErr != nil {
			return instance.Solution{}, ctxErr
		}
		return instance.Solution{}, errSearchLimit
	}
	if bestAssign == nil {
		return instance.NewSolution(in, in.Assign), nil
	}
	return instance.NewSolution(in, bestAssign), nil
}

// Greedy is an LPT heuristic honoring the allowed sets: jobs in
// decreasing size order go to their least-loaded allowed machine. Moves
// are unconstrained (Corollary 1's regime); callers inspect the
// solution's Moves field for accounting.
func Greedy(ci *Instance) instance.Solution {
	in := ci.Base
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if in.Jobs[order[a]].Size != in.Jobs[order[b]].Size {
			return in.Jobs[order[a]].Size > in.Jobs[order[b]].Size
		}
		return order[a] < order[b]
	})
	loads := make([]int64, in.M)
	assign := make([]int, in.N())
	for _, j := range order {
		bestP := -1
		for _, p := range ci.allowedOf(j) {
			if bestP < 0 || loads[p] < loads[bestP] {
				bestP = p
			}
		}
		assign[j] = bestP
		loads[bestP] += in.Jobs[j].Size
	}
	return instance.NewSolution(in, assign)
}
