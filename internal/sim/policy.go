package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/obs"
)

// PolicyTriggered wraps M-PARTITION with a hysteresis trigger: it only
// spends moves when the observed imbalance (makespan over flat average)
// exceeds Trigger. Operators run exactly this loop — rebalancing has a
// cost, so a farm within tolerance is left alone — and the experiment
// suite uses it to show how much of the migration budget the trigger
// saves at a small balance penalty. When the trigger fires it runs
// incremental-scan M-PARTITION, whose ladder amortizes well across the
// repeated nearby targets a drifting farm produces.
type PolicyTriggered struct {
	// Trigger is the imbalance factor above which a rebalance runs
	// (default 1.3).
	Trigger float64
}

// Name implements Policy.
func (p PolicyTriggered) Name() string {
	t := p.Trigger
	if t <= 1 {
		t = 1.3
	}
	return fmt.Sprintf("triggered(%.2g)", t)
}

// Rebalance implements Policy.
func (p PolicyTriggered) Rebalance(in *instance.Instance, k int, sink *obs.Sink) instance.Solution {
	trigger := p.Trigger
	if trigger <= 1 {
		trigger = 1.3
	}
	avg := float64(in.TotalSize()) / float64(in.M)
	if avg <= 0 || float64(in.InitialMakespan()) <= trigger*avg {
		return instance.NewSolution(in, in.Assign)
	}
	// The background context never fires, so the error is always nil.
	sol, _ := core.MPartition(context.Background(), in, k, core.IncrementalScan, sink)
	return sol
}
