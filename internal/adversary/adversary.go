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
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/greedy"
	"repro/internal/instance"
	"repro/internal/par"
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
	// Workers bounds the concurrency of trial evaluation (≤ 0 means
	// runtime.GOMAXPROCS(0), 1 forces sequential). Instances are drawn
	// from one deterministic stream before evaluation and the reduction
	// keeps the earliest trial among ratio ties, so the hunt's result
	// is identical at every worker count.
	Workers int
	// Alg, when non-empty, attacks the named engine solver instead of
	// the built-in Target — any k-capable registry entry can be hunted
	// without adversary-specific wiring. The Target argument is ignored
	// (use it only for Bound lookups).
	Alg string
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
// against the exact optimum. Instances whose exact solve exceeds the
// limits are skipped. Trials are drawn from one deterministic stream up
// front and then scored concurrently on up to cfg.Workers goroutines;
// the order-restored reduction keeps the earliest trial achieving the
// maximum ratio, exactly what a sequential scan returns. The exact
// reference solves and the attacked algorithm both poll ctx, so a
// deadline interrupts the hunt mid-trial and returns ctx.Err(). A bad
// cfg.Alg name skips every trial, and the zero Worst returns.
func Hunt(ctx context.Context, target Target, cfg Config) (Worst, error) {
	cfg.defaults()
	rng := workload.NewRNG(cfg.Seed)
	trials := make([]*instance.Instance, cfg.Trials)
	for t := range trials {
		sizes := make([]int64, cfg.N)
		assign := make([]int, cfg.N)
		for i := range sizes {
			sizes[i] = 1 + rng.Int63n(cfg.MaxSize)
			assign[i] = rng.Intn(cfg.M)
		}
		trials[t] = instance.MustNew(cfg.M, sizes, nil, assign)
	}

	type score struct {
		ok       bool
		makespan int64
		opt      int64
		ratio    float64
	}
	// A skipped trial (exact solve over its limits, or a solver error)
	// is data, not a failure; only ctx expiry aborts the hunt.
	scores, err := par.Map(ctx, cfg.Trials, cfg.Workers, func(t int) (score, error) {
		in := trials[t]
		opt, err := exact.Solve(ctx, in, cfg.K, exact.Limits{})
		if isCtxErr(err) {
			return score{}, err
		}
		if err != nil || opt.Makespan == 0 {
			return score{}, nil
		}
		var ms int64
		if cfg.Alg != "" {
			sol, err := engine.Solve(ctx, cfg.Alg, in, engine.Params{K: cfg.K})
			if isCtxErr(err) {
				return score{}, err
			}
			if err != nil {
				return score{}, nil
			}
			ms = sol.Makespan
		} else {
			switch target {
			case TargetGreedy:
				ms = greedy.Rebalance(in, cfg.K, greedy.OrderSmallestFirst, nil).Makespan
			case TargetGreedyLPT:
				ms = greedy.Rebalance(in, cfg.K, greedy.OrderLargestFirst, nil).Makespan
			case TargetMPartition:
				sol, err := core.MPartition(ctx, in, cfg.K, core.IncrementalScan, nil)
				if err != nil {
					return score{}, err
				}
				ms = sol.Makespan
			}
		}
		return score{ok: true, makespan: ms, opt: opt.Makespan, ratio: float64(ms) / float64(opt.Makespan)}, nil
	})
	if err != nil {
		return Worst{}, err
	}

	var worst Worst
	for t, sc := range scores {
		if sc.ok && sc.ratio > worst.Ratio {
			worst = Worst{Instance: trials[t], K: cfg.K, Makespan: sc.makespan, Opt: sc.opt, Ratio: sc.ratio}
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
