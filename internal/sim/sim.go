// Package sim is the synthetic substitute for the paper's motivating
// web-server scenario (and the cited Linder–Shah experiments, which were
// never published): a farm of servers hosting websites whose loads drift
// over time and occasionally spike in flash crowds. A pluggable
// rebalancing policy is invoked periodically with a bounded move budget,
// exactly the regime the load rebalancing problem models. Experiment E9
// compares policies over identical traffic traces.
package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/greedy"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Policy produces a bounded-move rebalancing of the current assignment.
// Run passes its Config.Obs as sink; nil disables instrumentation.
type Policy interface {
	Name() string
	Rebalance(in *instance.Instance, k int, sink *obs.Sink) instance.Solution
}

// PolicyNone never moves a site (the do-nothing baseline).
type PolicyNone struct{}

// Name implements Policy.
func (PolicyNone) Name() string { return "none" }

// Rebalance implements Policy.
func (PolicyNone) Rebalance(in *instance.Instance, _ int, _ *obs.Sink) instance.Solution {
	return instance.NewSolution(in, in.Assign)
}

// PolicyEngine runs any registered engine solver (by name) each round,
// so a simulation can exercise every k-capable algorithm the registry
// knows — §2 GREEDY as "greedy", §3.1 M-PARTITION as "mpartition" —
// without sim-specific wiring. A solve failure (unknown name, or a
// solver error) leaves the assignment unchanged for that round —
// operationally, a rebalancer that fails leaves the farm as it is.
type PolicyEngine struct {
	// Solver is the engine registry name ("greedy", "mpartition", …).
	Solver string
}

// Name implements Policy.
func (p PolicyEngine) Name() string { return p.Solver }

// Rebalance implements Policy.
func (p PolicyEngine) Rebalance(in *instance.Instance, k int, sink *obs.Sink) instance.Solution {
	sol, err := engine.Solve(context.Background(), p.Solver, in, engine.Params{K: k, Obs: sink})
	if err != nil {
		return instance.NewSolution(in, in.Assign)
	}
	return sol
}

// PolicyFull repacks every site from scratch each round (GREEDY with an
// unlimited move budget, i.e. an LPT repack) — the upper envelope on
// achievable balance, at maximal migration cost.
type PolicyFull struct{}

// Name implements Policy.
func (PolicyFull) Name() string { return "full" }

// Rebalance implements Policy.
func (PolicyFull) Rebalance(in *instance.Instance, _ int, sink *obs.Sink) instance.Solution {
	return greedy.Rebalance(in, in.N(), greedy.OrderLargestFirst, sink)
}

// Config describes a farm simulation.
type Config struct {
	Sites          int     // number of websites
	Servers        int     // number of servers
	Steps          int     // simulation length
	RebalanceEvery int     // steps between policy invocations (≥1)
	MovesPerRound  int     // move budget k per invocation
	Drift          float64 // stddev of multiplicative log-load drift per step
	FlashProb      float64 // per-step probability of a flash crowd
	FlashFactor    float64 // flash crowd load multiplier
	MaxLoad        int64   // per-site load cap (default 1e6)
	Seed           uint64
	// Obs receives per-round trace events (round: step, makespan, moves,
	// policy latency), the sim.* metrics and the policy's solver
	// instrumentation; nil disables instrumentation. The traffic trace
	// itself is unaffected, so runs stay reproducible.
	Obs *obs.Sink
}

func (c *Config) defaults() error {
	if c.Sites <= 0 || c.Servers <= 0 || c.Steps <= 0 {
		return fmt.Errorf("sim: bad config %+v", *c)
	}
	if c.RebalanceEvery <= 0 {
		c.RebalanceEvery = 1
	}
	if c.Drift == 0 {
		c.Drift = 0.05
	}
	if c.FlashFactor == 0 {
		c.FlashFactor = 8
	}
	if c.MaxLoad <= 0 {
		c.MaxLoad = 1e6
	}
	return nil
}

// Metrics summarizes one run.
type Metrics struct {
	Policy       string  `json:"policy"`
	PeakMakespan int64   `json:"peakMakespan"`
	MeanMakespan float64 `json:"meanMakespan"`
	// MeanImbalance is the mean of makespan divided by the flat average
	// load (1.0 is perfect balance).
	MeanImbalance float64 `json:"meanImbalance"`
	TotalMoves    int     `json:"totalMoves"`
	Series        []int64 `json:"series"` // makespan after each step
}

// Run simulates the farm under the policy. Identical Config (including
// Seed) produces identical traffic for every policy, so metric
// differences are attributable to the policy alone.
func Run(cfg Config, policy Policy) (Metrics, error) {
	if err := cfg.defaults(); err != nil {
		return Metrics{}, err
	}
	rng := workload.NewRNG(cfg.Seed)
	loads := make([]int64, cfg.Sites)
	for i := range loads {
		loads[i] = 1 + rng.Int63n(1000)
	}
	assign := make([]int, cfg.Sites)
	for i := range assign {
		assign[i] = rng.Intn(cfg.Servers)
	}

	met := Metrics{Policy: policy.Name()}
	var sumMs, sumImb float64
	for step := 0; step < cfg.Steps; step++ {
		// Traffic evolution: multiplicative drift plus flash crowds.
		for i := range loads {
			f := math.Exp(cfg.Drift * rng.NormFloat64())
			l := int64(float64(loads[i]) * f)
			if l < 1 {
				l = 1
			}
			if l > cfg.MaxLoad {
				l = cfg.MaxLoad
			}
			loads[i] = l
		}
		if rng.Float64() < cfg.FlashProb {
			i := rng.Intn(cfg.Sites)
			l := int64(float64(loads[i]) * cfg.FlashFactor)
			if l > cfg.MaxLoad {
				l = cfg.MaxLoad
			}
			loads[i] = l
		}

		rebalanced := false
		var roundMoves int
		var policyNs int64
		if step%cfg.RebalanceEvery == 0 {
			in := instance.MustNew(cfg.Servers, loads, nil, assign)
			var start time.Time
			if cfg.Obs != nil {
				start = time.Now()
			}
			sol := policy.Rebalance(in, cfg.MovesPerRound, cfg.Obs)
			if cfg.Obs != nil {
				policyNs = time.Since(start).Nanoseconds()
			}
			met.TotalMoves += sol.Moves
			roundMoves = sol.Moves
			rebalanced = true
			copy(assign, sol.Assign)
		}

		// Measure.
		srv := make([]int64, cfg.Servers)
		var total int64
		for i, p := range assign {
			srv[p] += loads[i]
			total += loads[i]
		}
		var ms int64
		for _, l := range srv {
			if l > ms {
				ms = l
			}
		}
		if ms > met.PeakMakespan {
			met.PeakMakespan = ms
		}
		met.Series = append(met.Series, ms)
		sumMs += float64(ms)
		sumImb += float64(ms) * float64(cfg.Servers) / float64(total)

		if cfg.Obs != nil {
			cfg.Obs.Observe("sim.step_makespan", ms)
			if rebalanced {
				cfg.Obs.Count("sim.rounds", 1)
				cfg.Obs.Count("sim.moves", int64(roundMoves))
				cfg.Obs.Observe("sim.policy_ns", policyNs)
				if cfg.Obs.Tracing() {
					cfg.Obs.Emit("round", obs.Fields{
						"policy": met.Policy, "step": step, "makespan": ms,
						"moves": roundMoves, "policy_ns": policyNs,
					})
				}
			}
		}
	}
	met.MeanMakespan = sumMs / float64(cfg.Steps)
	met.MeanImbalance = sumImb / float64(cfg.Steps)
	return met, nil
}
