// Allocation-free cache-hit support. The HTTP layer's fast path (see
// internal/server/fastpath.go) decodes a request on pooled buffers and
// probes the solution cache without queuing; the core-side halves of
// that handshake live here so the transport never touches the cache
// directly. Every method on this file's path is allocation-free on a
// hit — the zero-alloc guarantee is pinned by the server's
// TestFastSolveHitZeroAllocs.
package dispatch

import (
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

// FastPathEnabled reports whether the cache-hit fast path can run at
// all: it requires a solution cache.
func (c *Core) FastPathEnabled() bool { return c.cache != nil }

// HitScratch carries the reusable buffers of one fast-path cache probe.
// Callers pool it; nothing it holds may escape the serving of one
// request except through TryCachedSolve's returned solution, whose
// Assign aliases the scratch buffer.
type HitScratch struct {
	can    cache.CanonScratch
	assign []int
}

// TryCachedSolve canonicalizes the request on scratch buffers and
// probes the solution cache. On a hit the returned solution's Assign
// is hs's reused buffer (valid until the next call); the error return
// is the cached deterministic failure (an infeasibility), also a hit.
// ok is false on a miss or when no cache is configured — the caller
// falls back to the queued path, which starts or joins a flight.
func (c *Core) TryCachedSolve(hs *HitScratch, ent *Solver, ext *instance.Extended, k int, budget int64, eps float64) (sol instance.Solution, ok bool, err error) {
	if c.cache == nil {
		return instance.Solution{}, false, nil
	}
	p := engine.Params{
		K: k, Budget: budget, Eps: eps,
		Workers: c.cfg.SolverWorkers, Obs: c.cfg.Obs,
	}
	can := hs.can.Canonicalize(ent.name, ent.spec.Caps, ext, p)
	sol, ok, err = c.cache.TryGet(can, ent.name, hs.assign)
	if ok && err == nil {
		hs.assign = sol.Assign // keep the (possibly grown) buffer
	}
	return sol, ok, err
}

// ObserveFast mirrors the worker path's per-request accounting for a
// hit served without queuing: zero queue wait, zero engine compute,
// all cache.
func (c *Core) ObserveFast(ent *Solver, cacheNS int64, failed bool) {
	if c.cfg.Obs == nil {
		return
	}
	c.mQueueNS.Observe(0)
	c.mCacheNS.Observe(cacheNS)
	c.mSolveNS.Observe(0)
	c.mRequests.Inc()
	if failed {
		c.mErrors.Inc()
	}
	ent.requests.Inc()
	ent.latency.Observe(cacheNS)
}

// Peek probes the solution cache for a finished result without
// admitting, solving, or warming anything — the read side of the peer
// cache-fill protocol (DESIGN.md §13): after a membership change the
// new owner of a key peeks the previous owner, and a miss here must
// stay a cheap no-op. ok is false on a miss, for sweep-kind or
// unregistered solvers, or with caching disabled; err is a cached
// deterministic failure (also ok=true).
func (c *Core) Peek(req *Request) (sol instance.Solution, ok bool, err error) {
	if c.cache == nil {
		return instance.Solution{}, false, nil
	}
	spec, found := engine.Lookup(req.Solver)
	if !found || spec.Kind != engine.KindSolution {
		return instance.Solution{}, false, nil
	}
	p := engine.Params{K: req.K, Budget: req.Budget, Eps: req.Eps}
	can := cache.Canonicalize(req.Solver, spec.Caps, &req.Instance, p)
	return c.cache.TryGet(can, req.Solver, nil)
}
