package adversary

import (
	"context"
	"reflect"
	"testing"
)

// TestHuntParallelMatchesSequential pins Config.Workers' determinism
// contract: instances are drawn before scoring and the reduction keeps
// the earliest maximum, so the hunt returns the same worst case — same
// instance pointer-for-value, same ratio — at every worker count.
func TestHuntParallelMatchesSequential(t *testing.T) {
	for _, target := range []Target{TargetGreedy, TargetMPartition} {
		for seed := uint64(0); seed < 3; seed++ {
			cfg := Config{Trials: 40, Seed: seed}
			cfg.Workers = 1
			seq, _ := Hunt(context.Background(), target, cfg)
			for _, w := range []int{2, 4} {
				cfg.Workers = w
				got, _ := Hunt(context.Background(), target, cfg)
				if !reflect.DeepEqual(seq, got) {
					t.Fatalf("%s seed=%d workers=%d: %+v != sequential %+v",
						target, seed, w, got, seq)
				}
			}
		}
	}
}
