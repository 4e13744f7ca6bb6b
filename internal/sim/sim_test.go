package sim

import (
	"reflect"
	"testing"
)

func cfg(seed uint64) Config {
	return Config{
		Sites: 60, Servers: 6, Steps: 80, RebalanceEvery: 4,
		MovesPerRound: 5, FlashProb: 0.1, Seed: seed,
	}
}

func TestDeterministicTraffic(t *testing.T) {
	a, err := Run(cfg(3), PolicyNone{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg(3), PolicyNone{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatal("same seed produced different traces")
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := Run(Config{}, PolicyNone{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestNonePolicyNeverMoves(t *testing.T) {
	m, err := Run(cfg(1), PolicyNone{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalMoves != 0 {
		t.Fatalf("none policy moved %d sites", m.TotalMoves)
	}
}

func TestRebalancingImprovesPeak(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		none, err := Run(cfg(seed), PolicyNone{})
		if err != nil {
			t.Fatal(err)
		}
		mp, err := Run(cfg(seed), PolicyEngine{Solver: "mpartition"})
		if err != nil {
			t.Fatal(err)
		}
		if mp.MeanMakespan >= none.MeanMakespan {
			t.Fatalf("seed %d: mpartition mean %.0f not better than none %.0f",
				seed, mp.MeanMakespan, none.MeanMakespan)
		}
		if mp.TotalMoves == 0 {
			t.Fatalf("seed %d: mpartition never moved", seed)
		}
	}
}

func TestFullIsAtLeastAsBalancedAsBudgeted(t *testing.T) {
	c := cfg(7)
	budgeted, err := Run(c, PolicyEngine{Solver: "mpartition"})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(c, PolicyFull{})
	if err != nil {
		t.Fatal(err)
	}
	// Full rebalancing sees the same traffic and has a strictly larger
	// feasible set each round; over the run its mean imbalance must not
	// be meaningfully worse.
	if full.MeanImbalance > budgeted.MeanImbalance*1.10 {
		t.Fatalf("full %.3f much worse than budgeted %.3f", full.MeanImbalance, budgeted.MeanImbalance)
	}
	if full.TotalMoves < budgeted.TotalMoves {
		t.Fatalf("full moved less (%d) than budgeted (%d)", full.TotalMoves, budgeted.TotalMoves)
	}
}

func TestGreedyPolicyRuns(t *testing.T) {
	m, err := Run(cfg(9), PolicyEngine{Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Series) != 80 {
		t.Fatalf("series length %d", len(m.Series))
	}
	if m.Policy != "greedy" {
		t.Fatalf("policy name %q", m.Policy)
	}
	if m.PeakMakespan <= 0 || m.MeanImbalance < 1 {
		t.Fatalf("implausible metrics %+v", m)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{Sites: 10, Servers: 2, Steps: 5}
	if _, err := Run(c, PolicyNone{}); err != nil {
		t.Fatal(err)
	}
}
