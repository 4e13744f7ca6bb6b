// Package ptas implements the §4 polynomial-time approximation scheme
// for load rebalancing with arbitrary relocation costs: for any ε > 0 it
// produces an assignment of relocation cost at most the budget B whose
// makespan is at most (1+ε)·OPT(B).
//
// Construction, following the paper:
//
//   - Fix a guess G of the optimum and δ = Θ(ε). Jobs of size > δ·G are
//     large; their sizes are rounded up onto the geometric grid
//     l_i = δ(1+δ)^i·G with s = O(log(1/δ)/δ) classes. Small-job load is
//     accounted in units of u = δ·G, rounded up.
//   - A processor configuration is a tuple (x_1..x_s, v): x_i large jobs
//     of class i plus a small-load capacity of v units, W-feasible when
//     Σ x_i·l_i + v·u ≤ W = (1+3δ)·G.
//   - A dynamic program over processors computes the minimum relocation
//     cost to move every processor into a W-feasible configuration such
//     that class counts are conserved and exactly V = ⌈smallTotal/u⌉ + m
//     units of small capacity are provisioned (the +m padding is the
//     paper's Lemma 10 slack that makes the small-job reassignment of
//     Lemma 11 always succeed).
//   - The guess ladder multiplies G by (1+δ) from the packing lower
//     bound until the DP cost fits the budget; every G ≥ OPT(B) is
//     feasible, so the accepted guess is within (1+δ) of the optimum.
//
// The DP is exponential in s, so the scheme is practical only for small
// instances and moderate ε — exactly the trade-off the paper notes when
// recommending the 1.5-approximation for practice (experiment E4).
package ptas

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/instance"
	"repro/internal/obs"
)

// ErrTooLarge is returned when the DP exceeds the configured limits. It
// matches instance.ErrSearchLimit.
var ErrTooLarge = instance.SearchLimit("ptas: state space exceeds limits")

// Options tunes the scheme.
type Options struct {
	// Eps is the approximation parameter; the result is within (1+Eps)
	// of the optimal makespan for the budget. Default 1.0.
	Eps float64
	// MaxStates caps the DP frontier size per processor (default 2e6).
	MaxStates int
	// MaxJobs rejects larger instances outright (default 64).
	MaxJobs int
	// Obs receives guess / dp_setup / dp_layer trace events and the
	// ptas.* metrics; nil disables instrumentation.
	Obs *obs.Sink
}

func (o *Options) defaults() {
	if o.Eps <= 0 {
		o.Eps = 1.0
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 2_000_000
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 64
	}
}

// Solve runs the PTAS: minimum-makespan rebalancing with relocation cost
// at most budget, within a (1+Eps) factor of optimal. The guess ladder
// and every DP layer honor ctx: when the context is cancelled or its
// deadline expires mid-solve, Solve returns ctx.Err() promptly instead
// of finishing the exponential state-space walk.
func Solve(ctx context.Context, in *instance.Instance, budget int64, opts Options) (instance.Solution, error) {
	opts.defaults()
	if in.N() > opts.MaxJobs {
		return instance.Solution{}, ErrTooLarge
	}
	if budget < 0 {
		budget = 0
	}
	delta := opts.Eps / 6
	if delta > 0.35 {
		delta = 0.35
	}

	lo := in.LowerBound()
	hi := in.InitialMakespan()
	if lo >= hi {
		return instance.NewSolution(in, in.Assign), nil
	}

	// Guess ladder: G grows geometrically by (1+δ); the initial makespan
	// is appended as the always-feasible (cost 0) fallback.
	var guesses []int64
	for g := lo; g < hi; g = int64(math.Ceil(float64(g) * (1 + delta))) {
		guesses = append(guesses, g)
	}
	guesses = append(guesses, hi)

	// Walk the ladder upward and stop at the first guess whose DP cost
	// fits the budget: every guess above it would be evaluated only to
	// be discarded, so the walk runs on the caller's goroutine.
	var lastErr error
	for _, g := range guesses {
		if err := ctx.Err(); err != nil {
			return instance.Solution{}, err
		}
		assign, cost, err := solveAt(ctx, in, g, delta, opts)
		if opts.Obs != nil {
			opts.Obs.Count("ptas.guesses", 1)
			if opts.Obs.Tracing() {
				f := obs.Fields{"guess": g, "feasible": err == nil}
				if err == nil {
					f["cost"] = cost
					f["within_budget"] = cost <= budget
				} else {
					f["reason"] = err.Error()
				}
				opts.Obs.Emit("guess", f)
			}
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return instance.Solution{}, err
			}
			if !errors.Is(err, errInfeasibleGuess) {
				lastErr = err
			}
			continue
		}
		if cost <= budget {
			// Prefer the do-nothing fallback when the reconstructed
			// assignment is no better.
			sol := instance.NewSolution(in, assign)
			if sol.Makespan >= hi {
				return instance.NewSolution(in, in.Assign), nil
			}
			return sol, nil
		}
	}
	if lastErr != nil {
		return instance.Solution{}, lastErr
	}
	// The hi guess keeping everything in place costs 0 ≤ budget, so
	// this is unreachable; kept as a defensive fallback.
	return instance.NewSolution(in, in.Assign), nil
}

var errInfeasibleGuess = errors.New("ptas: guess below a lower bound")

// dpCostPool recycles the per-DP-layer cost slices (one COST(C, C')
// value per configuration, recomputed for every processor of every
// guess). The guess ladder runs the DP O(log OPT / δ) times per solve,
// so pooling these — the largest repeatedly-allocated slices in the
// scheme — keeps the steady-state allocation rate flat in the number of
// guesses and across solves.
var dpCostPool = sync.Pool{New: func() any { return new([]int64) }}

// solveAt runs the discretized DP at guess g and returns the
// reconstructed assignment and its DP relocation cost. The configuration
// enumeration and every DP layer poll ctx, so a deadline interrupts the
// exponential part of the scheme mid-flight with ctx.Err().
func solveAt(ctx context.Context, in *instance.Instance, g int64, delta float64, opts Options) ([]int, int64, error) {
	if g < in.MaxSize() || g*int64(in.M) < in.TotalSize() {
		return nil, 0, errInfeasibleGuess
	}
	jobs := in.Jobs
	m := in.M
	u := float64(g) * delta // small unit = δ·G
	if u < 1 {
		u = 1
	}
	// Geometric grid of rounded large sizes: l_i = u·(1+δ)^(i+1),
	// classes i = 0..s-1; class i holds actual sizes in (u·(1+δ)^i,
	// u·(1+δ)^(i+1)] except class 0 which starts right above u.
	var grid []float64
	for l := u * (1 + delta); ; l *= 1 + delta {
		grid = append(grid, l)
		if l >= float64(g) {
			break
		}
	}
	s := len(grid)
	classOf := func(size int64) int {
		f := float64(size)
		if f <= u {
			return -1 // small
		}
		for i, l := range grid {
			if f <= l {
				return i
			}
		}
		return s - 1
	}

	// Per-processor holdings.
	type holding struct {
		largeByClass [][]int // job IDs per class, sorted by ascending cost
		largeCostPfx [][]int64
		smalls       []int // sorted by ascending cost/size (removal order)
		smallSizePfx []int64
		smallCostPfx []int64
		smallTotal   int64
	}
	hold := make([]holding, m)
	counts := make([]int, s) // global class counts N_i
	var smallTotal int64
	byProc := instance.JobsOn(m, in.Assign)
	for p := 0; p < m; p++ {
		h := &hold[p]
		h.largeByClass = make([][]int, s)
		for _, j := range byProc[p] {
			c := classOf(jobs[j].Size)
			if c < 0 {
				h.smalls = append(h.smalls, j)
				h.smallTotal += jobs[j].Size
				smallTotal += jobs[j].Size
			} else {
				h.largeByClass[c] = append(h.largeByClass[c], j)
				counts[c]++
			}
		}
		h.largeCostPfx = make([][]int64, s)
		for c := 0; c < s; c++ {
			list := h.largeByClass[c]
			sort.Slice(list, func(a, b int) bool {
				if jobs[list[a]].Cost != jobs[list[b]].Cost {
					return jobs[list[a]].Cost < jobs[list[b]].Cost
				}
				return list[a] < list[b]
			})
			pfx := make([]int64, len(list)+1)
			for i, j := range list {
				pfx[i+1] = pfx[i] + jobs[j].Cost
			}
			h.largeCostPfx[c] = pfx
		}
		sort.Slice(h.smalls, func(a, b int) bool {
			ja, jb := jobs[h.smalls[a]], jobs[h.smalls[b]]
			l, r := ja.Cost*jb.Size, jb.Cost*ja.Size
			if l != r {
				return l < r
			}
			return h.smalls[a] < h.smalls[b]
		})
		h.smallSizePfx = make([]int64, len(h.smalls)+1)
		h.smallCostPfx = make([]int64, len(h.smalls)+1)
		for i, j := range h.smalls {
			h.smallSizePfx[i+1] = h.smallSizePfx[i] + jobs[j].Size
			h.smallCostPfx[i+1] = h.smallCostPfx[i] + jobs[j].Cost
		}
	}

	vTotal := int(math.Ceil(float64(smallTotal)/u)) + m
	bigW := (1 + 3*delta) * float64(g)

	// Enumerate the W-feasible configurations once, flattened into
	// struct-of-arrays form (configuration ci occupies cfgX[ci*s:
	// (ci+1)*s] plus cfgV[ci]); x_i ≤ N_i since more copies of a class
	// than exist can never be placed.
	var cfgX []int32
	var cfgV []int32
	nConfigs := 0
	var ctxErr error
	var build func(i int, load float64, x []int32)
	build = func(i int, load float64, x []int32) {
		if ctxErr != nil {
			return
		}
		if i == s {
			if nConfigs&8191 == 0 {
				ctxErr = ctx.Err()
			}
			maxV := int((bigW - load) / u)
			if maxV > vTotal {
				maxV = vTotal
			}
			for v := 0; v <= maxV; v++ {
				cfgX = append(cfgX, x...)
				cfgV = append(cfgV, int32(v))
				nConfigs++
			}
			return
		}
		for c := 0; ; c++ {
			nl := load + float64(c)*grid[i]
			if c > counts[i] || nl > bigW {
				break
			}
			x[i] = int32(c)
			build(i+1, nl, x)
			x[i] = 0
			if grid[i] == 0 {
				break
			}
		}
	}
	build(0, 0, make([]int32, s))
	if ctxErr != nil {
		return nil, 0, ctxErr
	}
	if nConfigs > opts.MaxStates {
		return nil, 0, ErrTooLarge
	}
	if opts.Obs != nil {
		opts.Obs.Observe("ptas.configs", int64(nConfigs))
		opts.Obs.Observe("ptas.classes", int64(s))
		if opts.Obs.Tracing() {
			opts.Obs.Emit("dp_setup", obs.Fields{
				"guess": g, "classes": s, "configs": nConfigs,
				"v_total": vTotal, "unit": int64(u),
			})
		}
	}

	// removalCost computes the §4 COST(C, C') for processor p moving to
	// configuration ci: cheapest large jobs per over-full class plus the
	// density-greedy small removal down to the capacity with δG slack
	// (Lemma 11).
	removalCost := func(p, ci int) int64 {
		h := &hold[p]
		x := cfgX[ci*s : ci*s+s]
		var cost int64
		for c := 0; c < s; c++ {
			have := len(h.largeByClass[c])
			if have > int(x[c]) {
				cost += h.largeCostPfx[c][have-int(x[c])]
			}
		}
		capSize := float64(cfgV[ci])*u + u
		r := 0
		for float64(h.smallTotal-h.smallSizePfx[r]) > capSize {
			r++
		}
		cost += h.smallCostPfx[r]
		return cost
	}

	// Forward DP over processors. State: class counts already allocated
	// plus small units already provisioned. The key codec is chosen by
	// class count: the packed 16-byte value key whenever it fits (it
	// always does at the default MaxJobs), strings beyond.
	counts32 := make([]int32, s)
	for i, c := range counts {
		counts32[i] = int32(c)
	}
	pr := &dpProblem{
		m: m, s: s, nConfigs: nConfigs, cfgX: cfgX, cfgV: cfgV,
		counts: counts32, vTotal: vTotal, removalCost: removalCost,
		opts: &opts, g: g,
	}
	var finCost int64
	var chosen []int32
	var dpErr error
	if s+2 <= 16 {
		finCost, chosen, dpErr = dpForward(ctx, pr, codec128(s))
	} else {
		finCost, chosen, dpErr = dpForward(ctx, pr, codecString(s))
	}
	if dpErr != nil {
		return nil, 0, dpErr
	}

	// Apply removals, then reassign.
	assign := append([]int(nil), in.Assign...)
	loads := make([]int64, m)     // running actual loads
	smallLoad := make([]int64, m) // actual small load per processor
	var pooledLarge [][]int       // removed large IDs per class
	var removedSmall []int
	pooledLarge = make([][]int, s)
	type deficit struct{ proc, cls, cnt int }
	var deficits []deficit
	for p := 0; p < m; p++ {
		h := &hold[p]
		x := cfgX[int(chosen[p])*s : int(chosen[p])*s+s]
		for c := 0; c < s; c++ {
			have := len(h.largeByClass[c])
			keepN := int(x[c])
			if keepN > have {
				deficits = append(deficits, deficit{p, c, keepN - have})
				keepN = have
			}
			// Cheapest (have−keepN) jobs are removed; the list is sorted
			// by ascending cost, so the kept ones are the tail.
			for i := 0; i < have-keepN; i++ {
				pooledLarge[c] = append(pooledLarge[c], h.largeByClass[c][i])
			}
			for i := have - keepN; i < have; i++ {
				loads[p] += jobs[h.largeByClass[c][i]].Size
			}
		}
		capSize := float64(cfgV[chosen[p]])*u + u
		r := 0
		for float64(h.smallTotal-h.smallSizePfx[r]) > capSize {
			r++
		}
		for i := 0; i < r; i++ {
			removedSmall = append(removedSmall, h.smalls[i])
		}
		kept := h.smallTotal - h.smallSizePfx[r]
		loads[p] += kept
		smallLoad[p] = kept
	}
	for _, d := range deficits {
		for i := 0; i < d.cnt; i++ {
			n := len(pooledLarge[d.cls])
			j := pooledLarge[d.cls][n-1]
			pooledLarge[d.cls] = pooledLarge[d.cls][:n-1]
			assign[j] = d.proc
			loads[d.proc] += jobs[j].Size
		}
	}
	for c := range pooledLarge {
		if len(pooledLarge[c]) != 0 {
			return nil, 0, fmt.Errorf("ptas: internal: class %d pool not drained", c)
		}
	}

	// Lemma 11 reassignment of removed smalls: place each on a processor
	// whose small load is below its capacity; pick the one with the most
	// spare capacity.
	sort.Slice(removedSmall, func(a, b int) bool {
		if jobs[removedSmall[a]].Size != jobs[removedSmall[b]].Size {
			return jobs[removedSmall[a]].Size > jobs[removedSmall[b]].Size
		}
		return removedSmall[a] < removedSmall[b]
	})
	spare := &spareHeap{}
	for p := 0; p < m; p++ {
		capSize := float64(cfgV[chosen[p]]) * u
		spare.items = append(spare.items, spareItem{p, capSize - float64(smallLoad[p])})
	}
	heap.Init(spare)
	for _, j := range removedSmall {
		top := &spare.items[0]
		if top.spare <= 0 {
			return nil, 0, fmt.Errorf("ptas: internal: no spare small capacity for job %d", j)
		}
		assign[j] = top.proc
		top.spare -= float64(jobs[j].Size)
		heap.Fix(spare, 0)
	}

	return assign, finCost, nil
}

type spareItem struct {
	proc  int
	spare float64
}

type spareHeap struct{ items []spareItem }

func (h *spareHeap) Len() int { return len(h.items) }

func (h *spareHeap) Less(a, b int) bool {
	if h.items[a].spare != h.items[b].spare {
		return h.items[a].spare > h.items[b].spare
	}
	return h.items[a].proc < h.items[b].proc
}

func (h *spareHeap) Swap(a, b int) { h.items[a], h.items[b] = h.items[b], h.items[a] }

func (h *spareHeap) Push(x any) { h.items = append(h.items, x.(spareItem)) }

func (h *spareHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
