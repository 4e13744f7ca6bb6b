package core

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// BenchmarkMPartitionCold is the engine's share of one cold-solve miss:
// a fresh solver and a BinarySearch M-PARTITION on the serving
// benchmark's cold-solve shape (n = 2000, m = 16, k = 50, Zipf sizes up
// to 1000, skewed placement).
func BenchmarkMPartitionCold(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 2000, M: 16, MaxSize: 1000, Sizes: workload.SizeZipf,
		Placement: workload.PlaceSkewed, Costs: workload.CostUnit, Seed: 3,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MPartition(context.Background(), in, 50, BinarySearch, nil)
	}
}
