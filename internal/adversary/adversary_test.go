package adversary

import (
	"context"
	"testing"

	"repro/internal/verify"
)

func TestHuntNeverCrossesProvenBounds(t *testing.T) {
	for _, target := range []Target{TargetGreedy, TargetGreedyLPT, TargetMPartition} {
		for seed := uint64(0); seed < 3; seed++ {
			cfg := Config{Trials: 120, N: 8, M: 3, Seed: seed}
			w, _ := Hunt(context.Background(), target, cfg)
			if w.Instance == nil {
				t.Fatalf("%v seed %d: hunt found nothing", target, seed)
			}
			bound := Bound(target, cfg.M)
			if w.Ratio > bound+1e-9 {
				t.Fatalf("%v seed %d: ratio %.4f crosses the proven bound %.4f on %s (k=%d)",
					target, seed, w.Ratio, bound, w.Instance, w.K)
			}
		}
	}
}

func TestHuntFindsNontrivialRatios(t *testing.T) {
	// The adversarial GREEDY order should be pushed meaningfully above 1
	// within a few hundred trials.
	w, _ := Hunt(context.Background(), TargetGreedy, Config{Trials: 400, Seed: 7})
	if w.Ratio <= 1.05 {
		t.Fatalf("hunt too weak: best greedy ratio %.4f", w.Ratio)
	}
}

func TestWorstInstanceIsReproducible(t *testing.T) {
	w, _ := Hunt(context.Background(), TargetGreedy, Config{Trials: 100, Seed: 3})
	if w.Instance == nil {
		t.Fatal("no result")
	}
	// The reported numbers must verify on the stored instance.
	if _, err := verify.Solution(w.Instance, w.Instance.Assign); err != nil {
		t.Fatal(err)
	}
	if w.Opt <= 0 || w.Makespan < w.Opt {
		t.Fatalf("implausible worst: %+v", w)
	}
}

func TestDefaults(t *testing.T) {
	var c Config
	c.defaults()
	if c.Trials != 300 || c.N != 8 || c.M != 3 || c.K != 4 {
		t.Fatalf("defaults = %+v", c)
	}
	if Target(99).String() != "unknown" || Bound(Target(99), 3) != 0 {
		t.Fatal("unknown target mishandled")
	}
}
