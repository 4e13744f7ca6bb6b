// Migration: the process-migration setting from the paper's
// introduction (Rudolph et al. migrate only a few processes; Harchol-
// Balter & Downey exploit process lifetimes). Processes arrive on the
// least-loaded CPU, grow or shrink while they run, and exit; every tick
// the scheduler may migrate at most k processes. Uses the online
// Balancer, whose warm M-PARTITION state survives between ticks.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	const (
		cpus     = 8
		ticks    = 200
		k        = 3 // migrations allowed per tick
		arrivals = 4 // new processes per tick
	)
	b, err := rebalance.NewBalancer(cpus)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	rng := workload.NewRNG(1994) // Rudolph et al.'s era

	nextPID := 0
	var live []int
	var peak, migrations int
	var sumMakespan float64
	for tick := 0; tick < ticks; tick++ {
		// Arrivals: heavy-tailed CPU demand, placed on the least-loaded
		// CPU (Graham-style, no migration cost yet).
		for a := 0; a < arrivals; a++ {
			size := 1 + rng.Int63n(100)
			if rng.Float64() < 0.1 {
				size *= 20 // occasional CPU hog
			}
			arrive := rebalance.BalancerDelta{Op: rebalance.Arrive, Job: nextPID, Size: size, Cost: 1, Proc: -1}
			if _, err := b.Apply(ctx, arrive); err != nil {
				log.Fatal(err)
			}
			live = append(live, nextPID)
			nextPID++
		}
		// Lifetimes: ~5% of processes exit per tick; the rest drift.
		for i := 0; i < len(live); {
			pid := live[i]
			if rng.Float64() < 0.05 {
				if _, err := b.Apply(ctx, rebalance.BalancerDelta{Op: rebalance.Depart, Job: pid}); err != nil {
					log.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			i++
		}

		moves, err := b.Rebalance(ctx, k)
		if err != nil {
			log.Fatal(err)
		}
		migrations += len(moves)
		ms := int(b.Makespan())
		if ms > peak {
			peak = ms
		}
		sumMakespan += float64(ms)
	}

	fmt.Printf("after %d ticks: %d live processes on %d CPUs\n", ticks, b.Len(), cpus)
	fmt.Printf("makespan now %d (lower bound %d), peak %d, mean %.0f\n",
		b.Makespan(), b.LowerBound(), peak, sumMakespan/ticks)
	fmt.Printf("migrations: %d total (budget allowed %d)\n", migrations, ticks*k)
	fmt.Printf("balance: loads %v\n", b.Loads())
	fmt.Printf("makespan within %.2fx of the packing lower bound (M-PARTITION guarantees 1.5x\n",
		float64(b.Makespan())/float64(b.LowerBound()))
	fmt.Println("of the best k-move rebalancing while spending very few migrations — Lemma 4)")
}
