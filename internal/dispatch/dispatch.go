// Package dispatch is the transport-agnostic serving core of the
// repository: everything between "a decoded, validated solve request"
// and "a solution (or typed error) with per-phase timings" — with no
// knowledge of HTTP, JSON, or any other wire format.
//
// It owns, in order of a request's life:
//
//   - Validation against the engine registry (typed errors: unknown
//     solver, bad parameters) — Validate.
//   - Deadline derivation: the request's timeout clamped to the
//     configured maximum, layered on the caller's context and the
//     core's root context so a drain cancels stragglers.
//   - Admission: each solve runs on its caller's goroutine while it
//     holds one of Workers solve slots, which bound concurrent solver
//     compute regardless of transport fan-in. A solve that finds every
//     slot taken waits its turn, first come first served, or fails
//     fast with ErrQueueFull once QueueDepth solves already wait.
//   - The solution cache: canonical-form LRU + single-flight
//     coalescing (internal/cache), including the peer cache-fill hook
//     a routing tier uses to warm a shard from the previous owner of a
//     key (DESIGN.md §13).
//   - The engine call itself, panic-isolated, with compute measured
//     separately from cache and queue time.
//
// The HTTP layer (internal/server) is a thin adapter over this core:
// it decodes bodies, maps the typed errors onto status codes, and
// renders Results. A shard router or any future transport (gRPC, an
// in-process fleet simulator) consumes the same core — that is the
// point of the split: the serving semantics live here exactly once.
//
// Solves and session calls join one drain group. Shutdown closes it to
// new work (which fails with a context.Canceled-wrapped error), lets
// admitted work complete, cancels stragglers on ctx expiry, and then
// waits for the cache flights those solves started.
package dispatch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	rebalance "repro"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
)

// Defaults applied by New to zero Config fields.
const (
	DefaultQueueDepth   = 64
	DefaultTimeout      = 30 * time.Second
	DefaultMaxTimeout   = 5 * time.Minute
	DefaultCacheEntries = cache.DefaultMaxEntries
	DefaultCacheBytes   = cache.DefaultMaxBytes
)

// FillFunc is the peer cache-fill hook threaded through to the
// solution cache; see cache.FillFunc. It is aliased here so transports
// can configure peer fill without importing internal/cache.
type FillFunc = cache.FillFunc

// Config tunes a Core. The zero value is usable: New fills every unset
// field with the package default.
type Config struct {
	// Workers is the number of solve slots — the number of solves
	// running concurrently, each on its caller's goroutine. ≤ 0 means
	// runtime.GOMAXPROCS(0) (the internal/par resolution rule).
	Workers int
	// SolverWorkers is handed to each solve as engine Params.Workers
	// and to frontier sweeps as FrontierOptions.Workers. ≤ 0 means 1.
	// No solution-kind solver reads it: only the frontier sweep is
	// concurrent, and the slots already parallelize across requests.
	SolverWorkers int
	// QueueDepth bounds the solves waiting for a slot; a request
	// arriving with that many waiting fails with ErrQueueFull. ≤ 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// DefaultTimeout is the per-request deadline applied when the
	// request names none. ≤ 0 means the package default.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines. ≤ 0 means the
	// package default.
	MaxTimeout time.Duration
	// CacheEntries bounds the solution cache's LRU. 0 means
	// DefaultCacheEntries; negative disables caching: nothing is stored,
	// hit or coalesced, and results carry no Cache outcome, but a solve
	// still answers the bytes a cached miss would (cache.Config).
	CacheEntries int
	// CacheBytes bounds the solution cache's memory, as charged by
	// cache.Config.MaxBytes; the LRU evicts on whichever of the two
	// bounds binds first. ≤ 0 means DefaultCacheBytes.
	CacheBytes int64
	// Obs receives the serving metrics (request counts, latency
	// histograms, queue depth, rejections) and is threaded into every
	// solve; nil disables instrumentation. The metric names keep the
	// server.* family they have carried since the serving layer landed:
	// the core is the serving pipeline, whichever transport fronts it.
	Obs *obs.Sink
	// Fill is the peer cache-fill hook: when a Request names a PeerFill
	// target and the local cache misses, the flight asks that peer for
	// the finished solution before running the engine. Nil disables
	// peer fill.
	Fill FillFunc
	// MaxSessions bounds the rebalancing-session table; a create beyond
	// the bound (after expired sessions are evicted) fails with
	// ErrSessionTableFull. ≤ 0 means DefaultMaxSessions.
	MaxSessions int
	// SessionTTL is the idle lifetime of a session: one that sees no
	// create/get/delta traffic for this long is evicted. ≤ 0 means
	// DefaultSessionTTL.
	SessionTTL time.Duration
}

// Core dispatches solve requests through the engine registry: bounded
// admission, deadlines, solution cache, solve slots. Create with New
// and release with Shutdown (or Close); transports adapt their wire
// format onto Do and never touch the cache or engine directly.
type Core struct {
	cfg        Config
	cache      *cache.Cache    // with CacheEntries < 0, a cache that keeps nothing
	slots      chan struct{}   // one token per running solve; capacity is the resolved Workers
	waiting    atomic.Int64    // solves blocked on a slot: the admission queue
	rootCtx    context.Context // cancelled to kill stragglers and stop the session janitor
	rootCancel context.CancelFunc
	sessions   *sessionTable // rebalancing sessions (session.go)

	// The drain group. Solves and session calls join inflight under
	// admit after checking draining; Shutdown sets draining under admit
	// before it waits, so no join can race the wait.
	admit    sync.Mutex
	draining atomic.Bool
	inflight sync.WaitGroup // admitted solves and session calls

	// solvers is the per-solver serving table, built once from the
	// registry: interned names for allocation-free lookup plus the
	// pre-resolved per-solver counters. Solvers registered after New
	// (tests) miss here and take the allocating fallback.
	solvers map[string]*solverEntry
	// Pre-resolved aggregate serving metrics; nil without an obs sink.
	mRequests, mErrors           *obs.Counter
	mQueueNS, mCacheNS, mSolveNS *obs.Histogram
	mQueueDepth, mInflight       *obs.Gauge // solves waiting; admitted solves, waiting or running
}

// errDraining rejects work that arrives once Shutdown has begun; it
// classifies as context.Canceled, which transports map to their
// unavailable status (HTTP 503).
var errDraining = fmt.Errorf("dispatch core is draining: %w", context.Canceled)

// New normalizes cfg and returns the core. The only goroutine it
// starts is the session janitor; solves run on their callers'.
func New(cfg Config) *Core {
	if cfg.SolverWorkers <= 0 {
		cfg.SolverWorkers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.DefaultTimeout > cfg.MaxTimeout {
		cfg.DefaultTimeout = cfg.MaxTimeout
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = DefaultSessionTTL
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Core{
		cfg:        cfg,
		slots:      make(chan struct{}, par.Workers(cfg.Workers, 0)),
		rootCtx:    ctx,
		rootCancel: cancel,
		sessions:   &sessionTable{entries: make(map[string]*sessionEntry)},
	}
	go c.sessionJanitor()
	// A drain timeout reaches flights through their parties: each
	// party's requestCtx dies with rootCtx, and the last to leave a
	// flight cancels it. A negative CacheEntries is cache.Config's
	// disabled mode.
	c.cache = cache.New(cache.Config{
		MaxEntries: cfg.CacheEntries, MaxBytes: cfg.CacheBytes,
		Obs: cfg.Obs, Fill: cfg.Fill,
	})
	c.solvers = make(map[string]*solverEntry)
	for _, spec := range engine.Specs() {
		c.solvers[spec.Name] = &solverEntry{name: spec.Name, spec: spec}
	}
	if cfg.Obs != nil {
		reg := cfg.Obs.Reg
		c.mRequests = reg.Counter("server.requests")
		c.mErrors = reg.Counter("server.errors")
		c.mQueueNS = reg.Histogram("server.queue_ns")
		c.mCacheNS = reg.Histogram("server.cache_ns")
		c.mSolveNS = reg.Histogram("server.solve_ns")
		c.mQueueDepth = reg.Gauge("server.queue_depth")
		c.mInflight = reg.Gauge("server.inflight")
		for name, ent := range c.solvers {
			ent.requests = reg.Counter("server.requests." + name)
			ent.latency = reg.Histogram("server.latency_ns." + name)
		}
	}
	return c
}

// PoolSize returns the number of solve slots: the resolved Workers.
func (c *Core) PoolSize() int { return cap(c.slots) }

// QueueDepth returns the admission queue bound.
func (c *Core) QueueDepth() int { return c.cfg.QueueDepth }

// QueueLen returns the number of solves waiting for a slot.
func (c *Core) QueueLen() int { return int(c.waiting.Load()) }

// Draining reports whether Shutdown has begun.
func (c *Core) Draining() bool { return c.draining.Load() }

// enter joins the drain group, or returns errDraining once Shutdown
// has begun. A nil return must be paired with c.inflight.Done().
func (c *Core) enter() error {
	c.admit.Lock()
	defer c.admit.Unlock()
	if c.draining.Load() {
		return errDraining
	}
	c.inflight.Add(1)
	return nil
}

// observe records one served solve: the per-request accounting shared
// by admitted solves (Do) and hits the transport served without
// admission (ObserveHit), so the two cannot drift in /metrics. ent is
// the solver's table entry, nil for solvers registered after New.
func (c *Core) observe(ent *solverEntry, solver string, res *Result, latencyNS int64) {
	if c.cfg.Obs == nil {
		return
	}
	c.mQueueNS.Observe(res.QueueNS)
	if res.Cache != "" {
		c.mCacheNS.Observe(res.CacheNS)
	}
	c.mSolveNS.Observe(res.SolveNS)
	c.mRequests.Inc()
	if res.Err != nil {
		c.mErrors.Inc()
	}
	if ent != nil {
		ent.requests.Inc()
		ent.latency.Observe(latencyNS)
	} else {
		c.cfg.Obs.Count("server.requests."+solver, 1)
		c.cfg.Obs.Observe("server.latency_ns."+solver, latencyNS)
	}
}

// solve runs the named solver (or sweep) under ctx. A solver panic is
// converted into an error so one bad request cannot take the caller
// down. Solution-kind solves always route through the solution cache,
// which with caching disabled still solves the canonical relabeling
// and answers the bytes a cached miss would.
func (c *Core) solve(ctx context.Context, req *Request) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("server: solver %q panicked: %v", req.Solver, r)
		}
	}()
	spec, ok := engine.Lookup(req.Solver)
	if !ok {
		// Validation already vetted the name; re-check defensively.
		res.Err = fmt.Errorf("%w: %q", engine.ErrUnknownSolver, req.Solver)
		return res
	}
	in := &req.Instance.Instance
	if spec.Kind == engine.KindSweep {
		ks := req.Ks
		if len(ks) == 0 {
			ks = rebalance.DefaultFrontierKs(in.N())
		}
		// Sweeps don't route through engine.Spec.Solve, so the solve
		// span is opened here.
		sctx, sp := obs.StartSpan(ctx, "solve")
		if sp != nil {
			sp.SetAttr(obs.String("solver", req.Solver))
		}
		t0 := time.Now()
		points, err := rebalance.Frontier(sctx, in, ks, rebalance.FrontierOptions{
			Workers: c.cfg.SolverWorkers, Obs: c.cfg.Obs,
		})
		res.SolveNS = time.Since(t0).Nanoseconds()
		sp.End()
		res.Sweep = true
		res.Err = err
		res.Points = make([]SweepPoint, len(points))
		for i, p := range points {
			res.Points[i] = SweepPoint{K: p.K, Makespan: p.Makespan, Moves: p.Moves}
		}
		return res
	}
	p := engine.Params{
		K:       req.K,
		Budget:  req.Budget,
		Eps:     req.Eps,
		Workers: c.cfg.SolverWorkers,
		Obs:     c.cfg.Obs,
		Allowed: req.Instance.Allowed, Conflicts: req.Instance.Conflicts,
	}
	// The cache span covers lookup, canonicalization (unless a probe
	// already keyed the request), coalesce wait and any peer fill; the
	// engine solve becomes its child via the span linkage grafted onto
	// the flight context (internal/cache).
	cctx, csp := obs.StartSpan(ctx, "cache")
	can := req.probe.can
	if !req.probe.keyed {
		can = cache.Canonicalize(spec.Name, spec.Caps, &req.Instance, p)
	}
	var st cache.Stats
	res.Sol, st, res.Err = c.cache.Solve(cctx, spec, &req.Instance, p, req.PeerFill, can)
	res.Cache, res.SolveNS, res.PeerFill = st.Outcome.String(), st.EngineNS, st.PeerFill
	if csp != nil {
		csp.SetAttr(obs.String("outcome", st.Outcome.String()))
	}
	csp.End()
	return res
}

// requestCtx derives the solve context for one request: the request's
// timeout (clamped to the configured maximum) layered on parent. The
// context dies with the first of: the deadline, the parent (client
// connection), or a drain timeout (rootCtx). The returned cancel also
// releases the rootCtx hook.
func (c *Core) requestCtx(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := c.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > c.cfg.MaxTimeout {
		timeout = c.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	stop := context.AfterFunc(c.rootCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// Do admits one validated request and runs it on the calling
// goroutine. The request runs under its own deadline (TimeoutMS
// clamped to the configured maximum, else the default) layered on ctx;
// trace span linkage in ctx is honored (the queue and cache phases
// record child spans).
//
// Admission: the solve takes one of Workers slots. With every slot
// taken it waits, first come first served, unless QueueDepth solves
// are already waiting, in which case it fails fast with ErrQueueFull.
// The wait counts against the deadline and is reported as QueueNS.
//
// The error return covers requests that never produced a solver
// result: ErrQueueFull, a context.Canceled-wrapped error once Shutdown
// has begun, or the context's error when the deadline, the caller or a
// drain timeout cut the wait or the solve short. A non-nil Result.Err
// instead reports the solver's own outcome — unknown solver,
// infeasible — with the phase timings populated.
func (c *Core) Do(ctx context.Context, req *Request) (Result, error) {
	if err := c.enter(); err != nil {
		return Result{}, err
	}
	defer c.inflight.Done()
	dctx, cancel := c.requestCtx(ctx, req.TimeoutMS)
	defer cancel()
	// The queue span covers the admission wait. It is a child of the
	// request's root span, not a parent of the solve spans.
	_, qspan := obs.StartSpan(dctx, "queue")
	enqueued := time.Now()
	var acquired bool
	select {
	case c.slots <- struct{}{}:
		acquired = true
	default:
		// Blocked senders on a channel are served in arrival order, so
		// waiting solves get slots first come, first served.
		if c.waiting.Add(1) > int64(c.cfg.QueueDepth) {
			c.waiting.Add(-1)
			if qspan != nil {
				qspan.SetAttr(obs.Bool("rejected", true))
			}
			qspan.End()
			c.cfg.Obs.Count("server.rejected_full", 1)
			return Result{}, fmt.Errorf("%w (%d deep); retry later", ErrQueueFull, c.cfg.QueueDepth)
		}
		adjust(c.mQueueDepth, 1)
	}
	adjust(c.mInflight, 1)
	defer adjust(c.mInflight, -1)
	if !acquired {
		select {
		case c.slots <- struct{}{}:
			acquired = true
		case <-dctx.Done():
		}
		c.waiting.Add(-1)
		adjust(c.mQueueDepth, -1)
	}
	queueNS := time.Since(enqueued).Nanoseconds()
	qspan.End()
	if acquired {
		defer func() { <-c.slots }()
	}
	if dctx.Err() != nil {
		// Expired, abandoned or drained while waiting: no solve runs.
		c.cfg.Obs.Observe("server.queue_ns", queueNS)
		c.cfg.Obs.Count("server.expired_in_queue", 1)
		return Result{}, c.abandoned(dctx)
	}
	start := time.Now()
	res := c.solve(dctx, req)
	res.QueueNS = queueNS
	// solve measured the engine compute (SolveNS); the remainder of the
	// dispatch time, plus the time a transport's probe spent keying the
	// request, belongs to the cache layer when one was in play.
	totalNS := time.Since(start).Nanoseconds() + req.probe.ns
	if res.Cache != "" {
		res.CacheNS = max(totalNS-res.SolveNS, 0)
	}
	c.observe(c.solvers[req.Solver], req.Solver, &res, totalNS)
	if res.Err != nil && dctx.Err() != nil {
		return Result{}, c.abandoned(dctx)
	}
	return res, nil
}

// abandoned reports a request whose context died before it produced a
// result, counting deadline expiries.
func (c *Core) abandoned(dctx context.Context) error {
	err := dctx.Err()
	if err == context.DeadlineExceeded {
		c.cfg.Obs.Count("server.deadline_expired", 1)
	}
	return fmt.Errorf("solve abandoned: %w", err)
}

// Shutdown drains the core. Admission stops at once: Draining reports
// true, and Do, SessionCreate and SessionDelta fail with a
// context.Canceled-wrapped error. Admitted solves and session calls,
// waiting or running, then run to completion. If ctx fires first, their
// contexts are cancelled — they return promptly with context errors —
// and ctx.Err() is reported. Every admitted call, and every cache
// flight one of them started, has returned when Shutdown does.
func (c *Core) Shutdown(ctx context.Context) error {
	c.admit.Lock()
	c.draining.Store(true)
	c.admit.Unlock()
	drained := make(chan struct{})
	go func() {
		c.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		c.cfg.Obs.Count("server.drain_cancelled", 1)
	}
	c.rootCancel() // cancels any straggler's context; stops the janitor
	// Sessions close after rootCancel: in-flight deltas have either
	// drained with the inflight group or see their contexts cancelled
	// and release the per-session locks promptly, so the close cannot
	// stall on a straggler.
	c.closeSessions()
	<-drained
	// Every party has left its flight, and the last to leave cancelled
	// it; a flight returns once its solver notices.
	c.cache.Wait()
	return err
}

// Close is Shutdown with no grace: in-flight solves are cancelled
// immediately.
func (c *Core) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = c.Shutdown(ctx)
}

// adjust moves a pre-resolved gauge by d; nil (no obs sink) is a no-op.
func adjust(g *obs.Gauge, d int64) {
	if g != nil {
		g.Add(d)
	}
}

// gauge sets a named gauge when instrumentation is on.
func (c *Core) gauge(name string, v int64) {
	if c.cfg.Obs != nil {
		c.cfg.Obs.Reg.Gauge(name).Set(v)
	}
}
