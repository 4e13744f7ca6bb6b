// Allocation-free cache-hit support. The HTTP layer decodes a request
// on pooled buffers and, before admission, probes the solution cache
// with TryCachedSolve (/v1/solve, every /v1/batch item, and /v1/peek);
// the core-side halves of that handshake live here so the transport
// never touches the cache directly. Every method on this file's path is
// allocation-free on a hit — the zero-alloc guarantee is pinned by the
// server's TestFastSolveHitZeroAllocs.
package dispatch

import (
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/obs"
)

// solverEntry is one entry of the per-solver serving table: the
// interned name and spec for allocation-free lookup from a decoded
// request, plus the pre-resolved per-solver metrics (nil without an obs
// sink).
type solverEntry struct {
	name     string
	spec     engine.Spec
	requests *obs.Counter
	latency  *obs.Histogram
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

// HitScratch carries the reusable buffers of one cache probe. Callers
// pool it; nothing it holds may escape the serving of one request:
// TryCachedSolve's returned solution and the key it leaves on a missed
// request both alias its buffers.
type HitScratch struct {
	can    cache.CanonScratch
	assign []int
}

// TryCachedSolve canonicalizes req, which Validate has accepted, on
// scratch buffers and probes the solution cache. On a hit (ok true) the
// result is what Do would have answered — Cache "hit", the probe's time
// as CacheNS, and the solution, or in Err the cached deterministic
// failure (an infeasibility) — except that its Assign is hs's reused
// buffer, valid until the next call. Nothing is recorded beyond
// cache.hits; ObserveHit books a hit the transport serves. ok is false
// on a miss, for a sweep-kind solver or one registered after New, and
// always when caching is disabled; the request then goes to Do, which
// starts or joins a flight. A miss leaves the probe's key on req, so
// that Do does not key the request a second time and counts the
// probe's time in its CacheNS; the key aliases hs, so req goes to Do
// before hs probes again (Do reads it only while it runs).
func (c *Core) TryCachedSolve(hs *HitScratch, req *Request) (res Result, ok bool) {
	ent := c.solvers[req.Solver]
	if ent == nil || ent.spec.Kind != engine.KindSolution {
		return Result{}, false
	}
	start := time.Now()
	p := engine.Params{
		K: req.K, Budget: req.Budget, Eps: req.Eps,
		Workers: c.cfg.SolverWorkers, Obs: c.cfg.Obs,
	}
	can := hs.can.Canonicalize(ent.name, ent.spec.Caps, &req.Instance, p)
	sol, ok, err := c.cache.TryGet(can, &req.Instance.Instance, ent.name, hs.assign)
	ns := time.Since(start).Nanoseconds()
	if !ok {
		req.probe = probedKey{can: can, ns: ns, keyed: true}
		return Result{}, false
	}
	if err == nil {
		hs.assign = sol.Assign // keep the (possibly grown) buffer
	}
	return Result{Sol: sol, Cache: "hit", CacheNS: ns, Err: err}, true
}

// ObserveHit records a TryCachedSolve hit on req that the transport
// served without admission — zero queue wait, zero engine compute, all
// cache — with the same accounting Do gives an admitted solve.
func (c *Core) ObserveHit(req *Request, res *Result) {
	c.observe(c.solvers[req.Solver], req.Solver, res, res.CacheNS)
}
