// Package instance defines the job/processor model shared by every
// algorithm in this repository: an instance of the load rebalancing
// problem is a set of sized jobs, an initial assignment of jobs to
// processors, and (optionally) per-job relocation costs.
//
// Sizes and costs are int64 throughout. The paper's arguments are purely
// combinatorial, and integer arithmetic keeps the threshold comparisons
// of M-PARTITION exact (see DESIGN.md §4).
package instance

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Job is a single unit of work. ID is the job's index in the instance's
// Jobs slice; Size is its processing size (load contribution); Cost is
// the cost of relocating it to any processor other than its current one.
// In the unit-cost model every Cost is 1.
type Job struct {
	ID   int   `json:"id"`
	Size int64 `json:"size"`
	Cost int64 `json:"cost"`
}

// Instance is a load rebalancing instance: M processors, a job list, and
// the initial assignment Assign[j] = processor of job j (0-based).
type Instance struct {
	M      int   `json:"m"`
	Jobs   []Job `json:"jobs"`
	Assign []int `json:"assign"`
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.Jobs) }

// Validate checks structural well-formedness: at least one processor,
// assignment length matching the job count, every target in range,
// strictly positive sizes and non-negative costs, and IDs matching
// slice positions. Both m and n fit an int32, which the flat kernels
// and the cache's move lists assume.
func (in *Instance) Validate() error {
	if in.M <= 0 {
		return fmt.Errorf("instance: M = %d, want > 0", in.M)
	}
	if in.M > math.MaxInt32 || len(in.Jobs) > math.MaxInt32 {
		return fmt.Errorf("instance: M = %d and %d jobs, want both at most %d", in.M, len(in.Jobs), math.MaxInt32)
	}
	if len(in.Assign) != len(in.Jobs) {
		return fmt.Errorf("instance: %d jobs but %d assignments", len(in.Jobs), len(in.Assign))
	}
	for j, job := range in.Jobs {
		if job.ID != j {
			return fmt.Errorf("instance: job at position %d has ID %d", j, job.ID)
		}
		if job.Size <= 0 {
			return fmt.Errorf("instance: job %d has size %d, want > 0", j, job.Size)
		}
		if job.Cost < 0 {
			return fmt.Errorf("instance: job %d has cost %d, want >= 0", j, job.Cost)
		}
	}
	for j, p := range in.Assign {
		if p < 0 || p >= in.M {
			return fmt.Errorf("instance: job %d assigned to processor %d, want [0,%d)", j, p, in.M)
		}
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{M: in.M}
	out.Jobs = append([]Job(nil), in.Jobs...)
	out.Assign = append([]int(nil), in.Assign...)
	return out
}

// Loads returns the per-processor load of an assignment over this
// instance's jobs. assign may be the initial assignment or any candidate
// solution of the same length.
func (in *Instance) Loads(assign []int) []int64 {
	loads := make([]int64, in.M)
	for j, p := range assign {
		loads[p] += in.Jobs[j].Size
	}
	return loads
}

// Makespan returns the maximum processor load of an assignment.
func (in *Instance) Makespan(assign []int) int64 {
	var max int64
	for _, l := range in.Loads(assign) {
		if l > max {
			max = l
		}
	}
	return max
}

// InitialMakespan returns the makespan of the initial assignment.
func (in *Instance) InitialMakespan() int64 { return in.Makespan(in.Assign) }

// TotalSize returns the sum of all job sizes.
func (in *Instance) TotalSize() int64 {
	var t int64
	for _, j := range in.Jobs {
		t += j.Size
	}
	return t
}

// MaxSize returns the largest job size, or 0 for an empty instance.
func (in *Instance) MaxSize() int64 {
	var max int64
	for _, j := range in.Jobs {
		if j.Size > max {
			max = j.Size
		}
	}
	return max
}

// LowerBound returns a lower bound on the makespan of any assignment of
// this instance's jobs: max(ceil(total/m), largest job).
func (in *Instance) LowerBound() int64 {
	lb := (in.TotalSize() + int64(in.M) - 1) / int64(in.M)
	if s := in.MaxSize(); s > lb {
		lb = s
	}
	return lb
}

// MovedJobs returns the IDs of jobs whose processor differs between the
// initial assignment and assign, in increasing ID order.
func (in *Instance) MovedJobs(assign []int) []int {
	var moved []int
	for j := range assign {
		if assign[j] != in.Assign[j] {
			moved = append(moved, j)
		}
	}
	return moved
}

// MoveCount returns the number of jobs relocated by assign relative to
// the initial assignment.
func (in *Instance) MoveCount(assign []int) int { return len(in.MovedJobs(assign)) }

// MoveCost returns the total relocation cost of assign relative to the
// initial assignment.
func (in *Instance) MoveCost(assign []int) int64 {
	var c int64
	for j := range assign {
		if assign[j] != in.Assign[j] {
			c += in.Jobs[j].Cost
		}
	}
	return c
}

// JobsOn returns, for each processor, the IDs of the jobs the given
// assignment places there.
func JobsOn(m int, assign []int) [][]int {
	on := make([][]int, m)
	for j, p := range assign {
		on[p] = append(on[p], j)
	}
	return on
}

// Solution is the output of a rebalancing algorithm: a full assignment
// plus metrics recomputed over it.
type Solution struct {
	Assign   []int `json:"assign"`
	Makespan int64 `json:"makespan"`
	Moves    int   `json:"moves"`
	MoveCost int64 `json:"moveCost"`
}

// NewSolution bundles an assignment with metrics computed from the
// instance. It copies assign.
func NewSolution(in *Instance, assign []int) Solution {
	a := append([]int(nil), assign...)
	return Solution{
		Assign:   a,
		Makespan: in.Makespan(a),
		Moves:    in.MoveCount(a),
		MoveCost: in.MoveCost(a),
	}
}

// ErrInfeasible is returned by solvers when no solution satisfies the
// move or budget constraint at the requested target.
var ErrInfeasible = errors.New("instance: no feasible solution")

// ErrSearchLimit is matched by every error a solver returns because a
// safety rail (a job, node or state-space cap) cut its search off. It
// says nothing about the instance, unlike ErrInfeasible: a larger rail
// may solve it, so it is never cached.
var ErrSearchLimit = errors.New("instance: search limit exceeded")

// SearchLimit returns an error with message msg that matches
// ErrSearchLimit under errors.Is, for a solver package's own sentinel.
func SearchLimit(msg string) error { return &searchLimitError{msg} }

type searchLimitError struct{ msg string }

func (e *searchLimitError) Error() string { return e.msg }
func (e *searchLimitError) Unwrap() error { return ErrSearchLimit }

// New builds an instance from sizes, costs and an initial assignment.
// costs may be nil, in which case every job gets unit cost. The slices
// are copied. The result is validated.
func New(m int, sizes []int64, costs []int64, assign []int) (*Instance, error) {
	if costs != nil && len(costs) != len(sizes) {
		return nil, fmt.Errorf("instance: %d sizes but %d costs", len(sizes), len(costs))
	}
	in := &Instance{M: m, Jobs: make([]Job, len(sizes)), Assign: append([]int(nil), assign...)}
	for j, s := range sizes {
		c := int64(1)
		if costs != nil {
			c = costs[j]
		}
		in.Jobs[j] = Job{ID: j, Size: s, Cost: c}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// MustNew is New but panics on error; intended for tests and examples
// with literal data.
func MustNew(m int, sizes []int64, costs []int64, assign []int) *Instance {
	in, err := New(m, sizes, costs, assign)
	if err != nil {
		panic(err)
	}
	return in
}

// SortedSizesDesc returns all job sizes in non-increasing order.
func (in *Instance) SortedSizesDesc() []int64 {
	s := make([]int64, len(in.Jobs))
	for j, job := range in.Jobs {
		s[j] = job.Size
	}
	sort.Slice(s, func(a, b int) bool { return s[a] > s[b] })
	return s
}

// String renders a compact human-readable description.
func (in *Instance) String() string {
	return fmt.Sprintf("instance{m=%d n=%d total=%d max=%d init=%d}",
		in.M, in.N(), in.TotalSize(), in.MaxSize(), in.InitialMakespan())
}
