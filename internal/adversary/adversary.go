// Package adversary hunts for worst-case instances empirically: random
// search over small instances, scoring each candidate by the ratio of
// an algorithm's makespan to the exact optimum. It is the evaluation
// suite's tightness probe (experiment E15): the hunt should push GREEDY
// toward its 2 − 1/m bound while never pushing M-PARTITION past 1.5 —
// and any ratio above a proven bound would expose an implementation bug
// long before a user hits it.
package adversary

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/greedy"
	"repro/internal/instance"
	"repro/internal/workload"
)

// Target selects the algorithm under attack.
type Target int

const (
	// TargetGreedy attacks §2 GREEDY with the adversarial
	// smallest-first placement order (Theorem 1's regime).
	TargetGreedy Target = iota
	// TargetGreedyLPT attacks GREEDY with its strongest order.
	TargetGreedyLPT
	// TargetMPartition attacks §3.1 M-PARTITION.
	TargetMPartition
)

// String names the target.
func (t Target) String() string {
	switch t {
	case TargetGreedy:
		return "greedy-adversarial"
	case TargetGreedyLPT:
		return "greedy-lpt"
	case TargetMPartition:
		return "mpartition"
	}
	return "unknown"
}

// Config bounds the search space.
type Config struct {
	Trials  int   // random instances to try (default 300)
	N       int   // jobs per instance (default 8)
	M       int   // processors (default 3)
	MaxSize int64 // size range (default 12; small ranges create ties)
	K       int   // move budget (default N/2)
	Seed    uint64
}

func (c *Config) defaults() {
	if c.Trials <= 0 {
		c.Trials = 300
	}
	if c.N <= 0 {
		c.N = 8
	}
	if c.M <= 0 {
		c.M = 3
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 12
	}
	if c.K <= 0 {
		c.K = c.N / 2
	}
}

// Worst is the result of a hunt: the instance achieving the largest
// measured ratio and the ratio itself.
type Worst struct {
	Instance *instance.Instance
	K        int
	Makespan int64
	Opt      int64
	Ratio    float64
}

// Hunt random-searches for the worst ratio of the target algorithm
// against the exact optimum, drawing and scoring one trial at a time
// from one deterministic stream; it keeps the earliest trial achieving
// the maximum ratio. Instances whose exact solve exceeds the limits are
// skipped. The exact reference solves and the attacked algorithm both
// poll ctx, so a deadline interrupts the hunt mid-trial and returns
// ctx.Err().
func Hunt(ctx context.Context, target Target, cfg Config) (Worst, error) {
	cfg.defaults()
	rng := workload.NewRNG(cfg.Seed)
	var worst Worst
	for t := 0; t < cfg.Trials; t++ {
		if err := ctx.Err(); err != nil {
			return Worst{}, err
		}
		sizes := make([]int64, cfg.N)
		assign := make([]int, cfg.N)
		for i := range sizes {
			sizes[i] = 1 + rng.Int63n(cfg.MaxSize)
			assign[i] = rng.Intn(cfg.M)
		}
		in := instance.MustNew(cfg.M, sizes, nil, assign)
		// A trial whose exact solve fails is skipped; only ctx expiry
		// aborts the hunt.
		opt, err := exact.Solve(ctx, in, cfg.K, exact.Limits{})
		if isCtxErr(err) {
			return Worst{}, err
		}
		if err != nil || opt.Makespan == 0 {
			continue
		}
		var ms int64
		switch target {
		case TargetGreedy:
			ms = greedy.Rebalance(in, cfg.K, greedy.OrderSmallestFirst, nil).Makespan
		case TargetGreedyLPT:
			ms = greedy.Rebalance(in, cfg.K, greedy.OrderLargestFirst, nil).Makespan
		case TargetMPartition:
			sol, err := core.MPartition(ctx, in, cfg.K, core.BinarySearch, nil)
			if err != nil {
				return Worst{}, err
			}
			ms = sol.Makespan
		}
		if ratio := float64(ms) / float64(opt.Makespan); ratio > worst.Ratio {
			worst = Worst{Instance: in, K: cfg.K, Makespan: ms, Opt: opt.Makespan, Ratio: ratio}
		}
	}
	return worst, nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Bound returns the proven approximation bound of the target at m
// processors, the line the hunt must never cross.
func Bound(target Target, m int) float64 {
	switch target {
	case TargetGreedy, TargetGreedyLPT:
		return 2 - 1/float64(m)
	case TargetMPartition:
		return 1.5
	}
	return 0
}
