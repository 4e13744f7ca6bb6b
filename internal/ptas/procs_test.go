package ptas

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/instance"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a random share of Puts, so allocation counts are not stable.
var raceEnabled bool

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin:
// it counts mallocs at whatever GOMAXPROCS the caller set, averaged
// over runs after one warm-up call. The GC before measuring starts the
// runtime's mark workers for any newly added Ps, whose goroutines
// would otherwise be counted against f.
func allocsPerRun(runs int, f func()) uint64 {
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestSolveSameAtAnyGOMAXPROCS pins that a solve runs on its caller's
// goroutine alone: on E4's instance family, with a tight and a generous
// budget, the returned solution and the allocations per solve are the
// same at GOMAXPROCS 1 and 4.
func TestSolveSameAtAnyGOMAXPROCS(t *testing.T) {
	in := workload.Generate(workload.Config{
		N: 8, M: 3, MaxSize: 30, Sizes: workload.SizeUniform,
		Placement: workload.PlaceRandom, Seed: 2,
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, budget := range []int64{3, in.TotalSize()} {
		for _, eps := range []float64{2.5, 1.0} {
			t.Run(fmt.Sprintf("budget=%d/eps=%g", budget, eps), func(t *testing.T) {
				var sols [2]instance.Solution
				var allocs [2]uint64
				for i, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					solve := func() {
						sol, err := Solve(context.Background(), in, budget, Options{Eps: eps})
						if err != nil {
							t.Fatal(err)
						}
						sols[i] = sol
					}
					allocs[i] = allocsPerRun(50, solve)
				}
				if !reflect.DeepEqual(sols[0], sols[1]) {
					t.Fatalf("GOMAXPROCS=1 solution %+v, GOMAXPROCS=4 %+v", sols[0], sols[1])
				}
				if !raceEnabled && allocs[0] != allocs[1] {
					t.Fatalf("allocs/op: %d at GOMAXPROCS=1, %d at GOMAXPROCS=4", allocs[0], allocs[1])
				}
			})
		}
	}
}
