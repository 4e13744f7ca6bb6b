package sim

import (
	"testing"

	"repro/internal/instance"
)

func TestTriggeredLeavesBalancedFarmAlone(t *testing.T) {
	// Perfectly balanced: imbalance 1.0 < any trigger.
	in := instance.MustNew(2, []int64{5, 5}, nil, []int{0, 1})
	sol := PolicyTriggered{Trigger: 1.3}.Rebalance(in, 2, nil)
	if sol.Moves != 0 {
		t.Fatalf("moved %d jobs on a balanced farm", sol.Moves)
	}
}

func TestTriggeredFiresAboveThreshold(t *testing.T) {
	// One-hot: imbalance = m = 2 > 1.3.
	in := instance.MustNew(2, []int64{5, 5}, nil, []int{0, 0})
	sol := PolicyTriggered{Trigger: 1.3}.Rebalance(in, 2, nil)
	if sol.Moves == 0 {
		t.Fatal("did not fire on a one-hot farm")
	}
	if sol.Makespan != 5 {
		t.Fatalf("makespan %d, want 5", sol.Makespan)
	}
}

func TestTriggeredDefaultAndName(t *testing.T) {
	if got := (PolicyTriggered{}).Name(); got != "triggered(1.3)" {
		t.Fatalf("name = %q", got)
	}
	if got := (PolicyTriggered{Trigger: 2}).Name(); got != "triggered(2)" {
		t.Fatalf("name = %q", got)
	}
}

func TestTriggeredSavesMovesInSimulation(t *testing.T) {
	// Strong flash crowds so the trigger actually fires; on mild traces
	// a hysteresis policy is (by design) indistinguishable from none.
	cfg := Config{
		Sites: 80, Servers: 6, Steps: 120, RebalanceEvery: 3,
		MovesPerRound: 6, FlashProb: 0.3, FlashFactor: 15, Seed: 17,
	}
	always, err := Run(cfg, PolicyEngine{Solver: "mpartition"})
	if err != nil {
		t.Fatal(err)
	}
	triggered, err := Run(cfg, PolicyTriggered{Trigger: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if triggered.TotalMoves > always.TotalMoves {
		t.Fatalf("trigger spent more moves (%d) than always-on (%d)",
			triggered.TotalMoves, always.TotalMoves)
	}
	none, err := Run(cfg, PolicyNone{})
	if err != nil {
		t.Fatal(err)
	}
	if triggered.MeanMakespan >= none.MeanMakespan {
		t.Fatalf("trigger no better than doing nothing: %.0f vs %.0f",
			triggered.MeanMakespan, none.MeanMakespan)
	}
}
