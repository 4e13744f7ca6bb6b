// Webfarm: the paper's motivating scenario. A farm of web servers hosts
// websites whose traffic drifts and occasionally spikes (flash crowds).
// Every few steps a rebalancer may migrate at most k sites. This example
// replays identical traffic under four policies and reports how much of
// the unlimited-migration benefit a small budget already captures.
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
)

func main() {
	cfg := sim.Config{
		Sites:          300,
		Servers:        12,
		Steps:          400,
		RebalanceEvery: 5,
		MovesPerRound:  10, // k: at most 10 website migrations per round
		Drift:          0.06,
		FlashProb:      0.2,
		FlashFactor:    10,
		Seed:           2003, // SPAA 2003
	}
	fmt.Printf("web farm: %d sites on %d servers, %d steps, k=%d migrations every %d steps\n\n",
		cfg.Sites, cfg.Servers, cfg.Steps, cfg.MovesPerRound, cfg.RebalanceEvery)

	policies := []sim.Policy{
		sim.PolicyNone{},                       // never migrate
		sim.PolicyEngine{Solver: "greedy"},     // §2 GREEDY with budget k
		sim.PolicyEngine{Solver: "mpartition"}, // §3 M-PARTITION with budget k
		sim.PolicyFull{},                       // unlimited migrations (upper envelope)
	}
	fmt.Printf("%-12s %14s %14s %12s %12s\n", "policy", "peak load", "mean load", "imbalance", "migrations")
	var none, full, budgeted sim.Metrics
	for _, p := range policies {
		m, err := sim.Run(cfg, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %14d %14.0f %12.3f %12d\n",
			m.Policy, m.PeakMakespan, m.MeanMakespan, m.MeanImbalance, m.TotalMoves)
		switch m.Policy {
		case "none":
			none = m
		case "full":
			full = m
		case "mpartition":
			budgeted = m
		}
	}

	gain := none.MeanMakespan - full.MeanMakespan
	captured := none.MeanMakespan - budgeted.MeanMakespan
	if gain > 0 {
		fmt.Printf("\nbudgeted M-PARTITION captured %.0f%% of the unlimited-migration benefit using %d/%d of its migrations\n",
			100*captured/gain, budgeted.TotalMoves, full.TotalMoves)
	}
}
