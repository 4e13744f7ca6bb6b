package cache

import (
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// BenchmarkCanonicalize measures keying one solve request shaped like
// the serving benchmark's (Zipf sizes, skewed placement, unit costs;
// n=200 on m=8 and n=2000 on m=16): "pooled" reuses one CanonScratch,
// as the shard's hit probe and the router do, and "fresh" is the
// allocating Canonicalize that batch items, client.Fleet and the fleet
// simulator call.
func BenchmarkCanonicalize(b *testing.B) {
	spec, _ := engine.Lookup("mpartition")
	p := engine.Params{K: 10}
	for _, size := range []struct{ n, m int }{{200, 8}, {2000, 16}} {
		ext := extOf(workload.Generate(workload.Config{
			N: size.n, M: size.m, MaxSize: 1000,
			Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Costs: workload.CostUnit,
			Seed: 1,
		}))
		name := "n=" + strconv.Itoa(size.n)
		b.Run(name+"/pooled", func(b *testing.B) {
			var sc CanonScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.Canonicalize("mpartition", spec.Caps, ext, p)
			}
		})
		b.Run(name+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Canonicalize("mpartition", spec.Caps, ext, p)
			}
		})
	}
}
