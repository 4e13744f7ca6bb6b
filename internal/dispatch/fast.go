// Allocation-free cache-hit support. The HTTP layer's fast path (see
// internal/server/fastpath.go) and its /v1/peek handler decode a
// request on pooled buffers and probe the solution cache without
// admission; the core-side halves of that handshake live here so the
// transport never touches the cache directly. Every method on this file's path is allocation-free on a
// hit — the zero-alloc guarantee is pinned by the server's
// TestFastSolveHitZeroAllocs.
package dispatch

import (
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
)

// Solver is one entry of the per-solver serving table: the interned
// name and spec for allocation-free lookup from raw request bytes,
// plus the pre-resolved per-solver metrics (nil without an obs sink).
type Solver struct {
	name     string
	spec     engine.Spec
	requests *obs.Counter
	latency  *obs.Histogram
}

// Name returns the interned solver name; assigning it to a request
// field does not retain the caller's byte slice.
func (s *Solver) Name() string { return s.name }

// Solution reports whether the solver is solution-kind (cacheable).
func (s *Solver) Solution() bool { return s.spec.Kind == engine.KindSolution }

// AcceptsParams reports whether every explicitly-set tuning parameter
// (nonzero counts as set) is one the solver consumes — the fast-path
// mirror of Validate's ValidateFlags check.
func (s *Solver) AcceptsParams(k int, budget int64, eps float64) bool {
	caps := s.spec.Caps
	return (k == 0 || caps.K) && (budget == 0 || caps.Budget) && (eps == 0 || caps.Eps)
}

// LookupSolver resolves a decoded request's solver name against the
// serving table without allocating. Nil for names absent from the table
// (including solvers registered after New, which take the slow path).
func (c *Core) LookupSolver(name string) *Solver {
	return c.solvers[name]
}

// SolverName converts raw solver-name bytes from a request body into a
// string, returning the registry's own copy for a registered solver so
// that a decoder filling Request.Solver from a pooled buffer neither
// allocates nor retains the buffer. Unregistered names are copied.
func SolverName(name []byte) string {
	if spec, ok := engine.Lookup(string(name)); ok {
		return spec.Name
	}
	return string(name)
}

// HitScratch carries the reusable buffers of one fast-path cache probe.
// Callers pool it; nothing it holds may escape the serving of one
// request except through TryCachedSolve's returned solution, whose
// Assign aliases the scratch buffer, and KeyInto's owned copy of a
// missed probe's key.
type HitScratch struct {
	can    cache.CanonScratch
	assign []int
	missed probedKey // the last probe's key, if it missed
}

// TryCachedSolve canonicalizes the request on scratch buffers and
// probes the solution cache. On a hit the returned solution's Assign
// is hs's reused buffer (valid until the next call); the error return
// is the cached deterministic failure (an infeasibility), also a hit.
// ok is false on a miss, for a nil (unregistered) or sweep-kind ent,
// and when no cache is configured — nothing is cached for those; a
// solve falls back to Do, which starts or joins a flight. After a miss
// KeyInto hands the probe's key on to that solve.
func (c *Core) TryCachedSolve(hs *HitScratch, ent *Solver, ext *instance.Extended, k int, budget int64, eps float64) (sol instance.Solution, ok bool, err error) {
	hs.missed = probedKey{}
	if c.cache == nil || ent == nil || !ent.Solution() {
		return instance.Solution{}, false, nil
	}
	start := time.Now()
	p := engine.Params{
		K: k, Budget: budget, Eps: eps,
		Workers: c.cfg.SolverWorkers, Obs: c.cfg.Obs,
	}
	can := hs.can.Canonicalize(ent.name, ent.spec.Caps, ext, p)
	sol, ok, err = c.cache.TryGet(can, &ext.Instance, ent.name, hs.assign)
	if !ok {
		hs.missed = probedKey{can: can, ns: time.Since(start).Nanoseconds(), keyed: true}
		return sol, false, nil
	}
	if err == nil {
		hs.assign = sol.Assign // keep the (possibly grown) buffer
	}
	return sol, ok, err
}

// KeyInto hands the key of hs's last probe, which must have missed on
// this very request, to req, so that Do's cache solve does not key the
// request a second time; the probe's time then counts in req's CacheNS.
// It does nothing when the last probe computed no key or hit.
func (hs *HitScratch) KeyInto(req *Request) {
	if !hs.missed.keyed {
		return
	}
	req.probe = hs.missed
	req.probe.can = hs.missed.can.Owned()
	hs.missed = probedKey{}
}

// ObserveHit records a hit the transport served without admission —
// zero queue wait, zero engine compute, all cache — with the same
// accounting Do gives an admitted solve. err is the cached failure,
// if any.
func (c *Core) ObserveHit(ent *Solver, cacheNS int64, err error) {
	c.observe(ent, ent.name, &Result{Cache: "hit", CacheNS: cacheNS, Err: err}, cacheNS)
}
