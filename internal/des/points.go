package des

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/workload"
)

// CanonicalPoints computes the real ring placement of a generated
// workload: rank r's point is cache.Canonicalize over the instance
// loadgen would send for index r (base.Seed + r), projected with
// Key.Point — the exact bytes-to-shard pipeline the router uses.
// Feeding these into Scenario.KeyPoints makes the
// simulator's per-shard traffic split match a real fleet's for the
// same workload flags, instead of merely matching in distribution.
func CanonicalPoints(base workload.Config, solver string, p engine.Params, keys int) ([]uint64, error) {
	spec, ok := engine.Lookup(solver)
	if !ok {
		return nil, fmt.Errorf("des: unknown solver %q", solver)
	}
	pts := make([]uint64, keys)
	for r := range pts {
		cfg := base
		cfg.Seed = base.Seed + uint64(r)
		ext := instance.Extended{Instance: *workload.Generate(cfg)}
		can := cache.Canonicalize(solver, spec.Caps, &ext, p)
		pts[r] = can.Key.Point()
	}
	return pts, nil
}
