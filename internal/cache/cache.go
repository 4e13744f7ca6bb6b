package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/verify"
)

// Defaults applied by New to unset Config bounds.
const (
	// DefaultMaxEntries bounds the LRU's entry count.
	DefaultMaxEntries = 4096
	// DefaultMaxBytes bounds the LRU's charged bytes (see Config.MaxBytes).
	DefaultMaxBytes = 64 << 20
)

// Outcome classifies how the cache served one Solve call.
type Outcome int

const (
	// Miss: this call ran the engine and populated the cache.
	Miss Outcome = iota + 1
	// Hit: the result came from a cached entry; no engine call.
	Hit
	// Coalesced: an identical request was already in flight; this call
	// waited for it and shared its result.
	Coalesced
)

// String returns the wire name of the outcome ("" for the zero value,
// so the JSON field is omitted for a request the cache never saw).
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return ""
}

// Stats describes how one Solve was served, for the server's per-phase
// timing fields.
type Stats struct {
	// Outcome classifies the cache's role in the solve.
	Outcome Outcome
	// EngineNS is the engine compute time behind this result in
	// nanoseconds: the flight's measured solve time for misses and
	// coalesced waits (the shared flight's compute, which may overlap
	// other requests), and 0 for hits.
	EngineNS int64
	// PeerFill reports the peer cache-fill attempt behind a miss:
	// "hit" (the peer had the solution; no local engine call), "miss"
	// (the peer was asked and had nothing, or answered what failed
	// verification; the engine ran locally), or "" (no peer named, no
	// fill hook configured, or the request never reached a flight).
	PeerFill string
}

// FillFunc asks a peer shard for an already-computed solution before a
// miss runs the engine locally. peer is the routing layer's fill target
// (a base URL); the request is identified exactly as the cache key is —
// solver, instance, caps-masked params. ext is the flight's canonical
// relabeling of the request (see Solve), and the returned solution must
// be on that job order — a /v1/peek of ext already is. Implementations
// must be side-effect free on failure and honor ctx (the flight's
// context): return ok=false on any error, timeout, or peer miss, in
// which case the flight falls through to the local engine. The flight
// verifies the answer against ext and stores it as a move list like an
// engine result; an answer that fails the check is counted in
// cache.peer_fill_rejected and treated as a miss.
type FillFunc func(ctx context.Context, peer, solver string, ext *instance.Extended, p engine.Params) (instance.Solution, bool)

// Config tunes a Cache.
type Config struct {
	// MaxEntries bounds the LRU's entry count; 0 means
	// DefaultMaxEntries. A negative bound disables caching: the cache
	// keeps no LRU and registers no flight, so nothing is stored, hit
	// or coalesced and no hit, miss or coalesced counter moves, but
	// every Solve still takes the one relabeled route and answers the
	// bytes a cached miss would.
	MaxEntries int
	// MaxBytes bounds the LRU's memory; ≤ 0 means DefaultMaxBytes. Each
	// entry is charged a fixed overhead plus 4 B per int32 of its move
	// list. The LRU evicts on whichever bound is reached first, and a
	// result charged more than MaxBytes alone is served but not stored.
	MaxBytes int64
	// Obs receives the cache.* counters (hits, misses, coalesced,
	// evictions, size, bytes); nil disables instrumentation.
	Obs *obs.Sink
	// Fill is the peer cache-fill hook consulted by flights whose
	// request names a peer (Solve's peer argument): before running the
	// engine, the flight asks the peer for the cached solution and only
	// solves locally when the peer misses or its answer fails
	// verification. Nil disables peer fill.
	Fill FillFunc
}

// flight is one in-progress solve that concurrent identical requests
// coalesce onto. The solve runs on its own goroutine (runFlight) so no
// single party's lifetime — including the initiator's — bounds it. refs
// counts the parties still interested (the initiator plus attached
// waiters), and it alone keeps the flight alive: each party detaches
// when its own context ends, and the last detach cancels the flight's
// context so an abandoned solve stops promptly.
type flight struct {
	done chan struct{} // closed when res/err are final
	// res is the outcome as an LRU entry, for every party to replay on
	// its own job order; nil when the outcome is an error that is not
	// cached.
	res      *entry
	err      error
	engineNS int64  // measured spec.Solve time; final once done closes
	peerFill string // peer fill outcome ("hit"/"miss"/""); final once done closes
	refs     atomic.Int64
	cancel   context.CancelFunc
}

// attach registers one more interested party. It fails when refs
// already hit zero — the flight is cancelled and merely awaiting
// teardown — so a new request never boards a dead flight.
func (f *flight) attach() bool {
	for {
		n := f.refs.Load()
		if n == 0 {
			return false
		}
		if f.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// detach drops one party's interest; the last detach cancels the
// in-flight solve.
func (f *flight) detach() {
	if f.refs.Add(-1) == 0 {
		f.cancel()
	}
}

// deadlineCtx reports a deadline it never fires on: the engine call of
// a flight sees the deadline of the request that started it, so solvers
// that size their search rails by whether the caller is bounded (the
// engine's exactLimits and nodeBudget) search as far as they would
// uncached, while cancellation still comes only from the parties
// leaving.
type deadlineCtx struct {
	context.Context
	deadline time.Time
}

func (c deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// solverCounters holds the pre-resolved per-solver cache.* counters so
// the hot paths never build "cache.hits."+solver strings per request.
type solverCounters struct {
	hits, misses, coalesced, evictions *obs.Counter
}

// Cache is the solution cache: canonical-form keyed LRU + single-flight
// request coalescing over the engine registry. Safe for concurrent use.
type Cache struct {
	sink *obs.Sink
	fill FillFunc

	// Aggregate and per-solver counters, resolved once at construction
	// from the engine registry. Solvers registered later (tests) fall
	// back to the allocating concat path in count. All nil when sink is.
	hits, misses, coalesced, evictions *obs.Counter
	solvers                            map[string]*solverCounters

	mu      sync.Mutex
	entries *lru            // nil when caching is disabled
	flights map[Key]*flight // nil when caching is disabled
	running sync.WaitGroup  // flight goroutines; joined under mu
}

// New returns a cache with the given configuration.
func New(cfg Config) *Cache {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	c := &Cache{sink: cfg.Obs, fill: cfg.Fill}
	if cfg.MaxEntries > 0 {
		c.entries = newLRU(cfg.MaxEntries, cfg.MaxBytes)
		c.flights = make(map[Key]*flight)
	}
	if c.sink != nil {
		reg := c.sink.Reg
		c.hits = reg.Counter("cache.hits")
		c.misses = reg.Counter("cache.misses")
		c.coalesced = reg.Counter("cache.coalesced")
		c.evictions = reg.Counter("cache.evictions")
		c.solvers = make(map[string]*solverCounters)
		for _, name := range engine.Names() {
			c.solvers[name] = &solverCounters{
				hits:      reg.Counter("cache.hits." + name),
				misses:    reg.Counter("cache.misses." + name),
				coalesced: reg.Counter("cache.coalesced." + name),
				evictions: reg.Counter("cache.evictions." + name),
			}
		}
	}
	return c
}

// Wait blocks until every flight goroutine has returned. A flight
// outlives its parties until its solver notices its context ended, so
// a caller that drains its requests calls Wait to see the solves end
// too. No Solve may start while Wait runs.
func (c *Cache) Wait() { c.running.Wait() }

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.len()
}

// TryGet is the zero-allocation pure-hit probe for callers that have
// already canonicalized the request in, on can (the server's fast
// path). On a hit it bumps the hit counters and replays the stored
// move list onto in's initial assignment in dst (reused when its
// capacity suffices, grown otherwise); the returned solution's Assign
// is that buffer, so the caller may keep it for the next request. A
// cached infeasibility is a hit with its error. On a miss nothing is
// counted — the caller is expected to fall back to Solve, which
// performs its own hit/miss accounting after re-checking the LRU.
func (c *Cache) TryGet(can Canonical, in *instance.Instance, solver string, dst []int) (instance.Solution, bool, error) {
	c.mu.Lock()
	e, ok := c.entries.get(can.Key)
	c.mu.Unlock()
	if !ok {
		return instance.Solution{}, false, nil
	}
	c.count("cache.hits", solver)
	if e.err != nil {
		return instance.Solution{}, true, e.err
	}
	return e.solution(dst, can, in), true, nil
}

// Solve runs spec, a solution-kind solver, through the cache under
// can, the request's canonical identity: the Canonicalize of exactly
// these arguments, computed by the caller (a hit probe keys each
// request once) and only read during the call. Every answer is the one
// stored move list replayed onto this request's job order: a
// canonical-form hit replays the LRU entry with no engine call; a
// request identical to one already in flight waits for that flight
// and replays its outcome; otherwise this call becomes the flight. The
// flight solves the request's canonical relabeling — its jobs permuted
// into canonical order and renumbered to their slots — so the stored
// moves, and every party's answer, depend only on the key, never on
// which job order asked first. The initiator replays the outcome like
// any waiter. Stats reports the outcome and the engine compute time
// behind the result, for callers that split per-phase latency on the
// wire. With caching disabled (Config.MaxEntries < 0) every call is
// its own unregistered flight, reported with a zero Outcome.
//
// Peer fill: when this call initiates a flight (a local miss) and both
// peer and the configured Fill hook are present, the flight first asks
// the peer for the solution of the relabeled instance and runs the
// engine only if the peer misses. The routing tier names the peer —
// the shard that owned this key before the current owner joined the
// ring — so a shard acquiring keys after a membership change warms its
// cache from the previous owner instead of recomputing. Stats.PeerFill
// reports the attempt's outcome; an empty peer skips it.
//
// Ownership: a flight may outlive the call that started it, so it runs
// on its own relabeled copy of the instance's job and assignment
// arrays. The extension slices (allowed sets, conflicts) and the
// params' copies of them are shared and must not change afterwards; an
// extended request is keyed in its own job order, so its relabeling
// keeps every job in place and the shared slices stay aligned.
//
// Cancellation semantics: a party — the initiator or a waiter — whose
// ctx ends detaches and returns ctx.Err() without killing the in-flight
// solve, so the remaining parties still get the result. The flight runs
// on its own goroutine and lives exactly while a party waits: the last
// party to leave cancels it, and Wait returns once it has returned. A
// drain reaches a flight through its parties, whose contexts the caller
// cancels. The engine call sees the initiator's deadline (see
// deadlineCtx) but is never cut off by it while a later party waits. A
// solver panic is converted into an error delivered to every attached
// party instead of leaving the flight open. Only successes and
// ErrInfeasible (a deterministic property of the instance) are cached;
// context errors and search-limit errors never poison the cache.
func (c *Cache) Solve(ctx context.Context, spec engine.Spec, ext *instance.Extended, p engine.Params, peer string, can Canonical) (instance.Solution, Stats, error) {
	c.mu.Lock()
	if e, ok := c.entries.get(can.Key); ok {
		c.mu.Unlock()
		c.count("cache.hits", spec.Name)
		if e.err != nil {
			return instance.Solution{}, Stats{Outcome: Hit}, e.err
		}
		return e.solution(nil, can, &ext.Instance), Stats{Outcome: Hit}, nil
	}
	if f, ok := c.flights[can.Key]; ok && f.attach() {
		c.mu.Unlock()
		c.count("cache.coalesced", spec.Name)
		return f.wait(ctx, Coalesced, can, &ext.Instance)
	}

	// This call initiates the flight. It runs on its own goroutine,
	// NOT under the initiator's ctx: if the initiator leaves while
	// waiters are attached, the solve must keep running for them. The
	// request's span linkage is grafted onto the flight context so a
	// traced miss still records its engine solve as a child span. A
	// dead flight awaiting teardown (attach failed above) is simply
	// replaced; its finalizer's guarded delete leaves the successor
	// alone.
	fctx, cancel := context.WithCancel(obs.AdoptSpan(context.Background(), ctx))
	f := &flight{done: make(chan struct{}), cancel: cancel}
	f.refs.Store(1)
	var out Outcome
	if c.flights != nil {
		out = Miss
		c.flights[can.Key] = f
	}
	c.running.Add(1)
	c.mu.Unlock()
	if out == Miss {
		c.count("cache.misses", spec.Name)
	}
	deadline, _ := ctx.Deadline()
	go c.runFlight(fctx, deadline, spec, can.relabel(ext), p, can.Key, f, peer)
	return f.wait(ctx, out, can, &ext.Instance)
}

// wait is one party's wait on f, whose attach it holds: on completion
// it replays the flight's outcome onto in, the request can keys, and on
// ctx's end it returns ctx.Err(); either way it detaches.
func (f *flight) wait(ctx context.Context, out Outcome, can Canonical, in *instance.Instance) (instance.Solution, Stats, error) {
	select {
	case <-f.done:
		f.detach()
		st := Stats{Outcome: out, EngineNS: f.engineNS, PeerFill: f.peerFill}
		if f.err != nil {
			return instance.Solution{}, st, f.err
		}
		return f.res.solution(nil, can, in), st, nil
	case <-ctx.Done():
		f.detach()
		return instance.Solution{}, Stats{Outcome: out}, ctx.Err()
	}
}

// runFlight executes the flight's solve of rel, the canonical
// relabeling, and finalizes the flight exactly once: remove it from
// the flights map, populate the LRU when the outcome is cacheable,
// publish res/err, close done, and leave the running group. The
// finalizer runs in a defer so a panic — the solver's, or encodeMoves'
// on a malformed solution — cannot skip it: an open flight whose done
// channel never closes would wedge every future request for the key.
// The panic is converted into the error each attached party receives
// (the server maps it to 500, same as its own panic safety net).
func (c *Cache) runFlight(fctx context.Context, deadline time.Time, spec engine.Spec, rel *instance.Extended, p engine.Params, key Key, f *flight, peer string) {
	defer c.running.Done()
	defer func() {
		if r := recover(); r != nil {
			f.res, f.err = nil, fmt.Errorf("cache: solver %q panicked: %v", spec.Name, r)
		}
		c.mu.Lock()
		// Guarded delete: a successor flight may already own the key if
		// this one was abandoned (refs 0) and replaced before finalizing.
		if c.flights[key] == f {
			delete(c.flights, key)
		}
		if f.res != nil && c.entries != nil {
			for _, ev := range c.entries.add(f.res) {
				c.count("cache.evictions", ev.solver)
			}
			c.gaugeSize()
		}
		c.mu.Unlock()
		close(f.done)
		f.cancel() // release the flight context's resources
	}()
	sol, err := c.solveFlight(fctx, deadline, spec, rel, p, f, peer)
	switch {
	case err == nil:
		f.res = &entry{key: key, solver: spec.Name, moves: encodeMoves(&rel.Instance, sol),
			sol: instance.Solution{Makespan: sol.Makespan, Moves: sol.Moves, MoveCost: sol.MoveCost}}
	case errors.Is(err, instance.ErrInfeasible):
		f.res = &entry{key: key, solver: spec.Name, err: err}
	}
	f.err = err
}

// solveFlight produces the flight's solution: from the peer when one
// is named and has it, else from the engine. deadline is the
// initiator's, zero when it had none; only the engine call sees it,
// not the peer fill, whose own timeout context.WithTimeout would
// otherwise trust a deadline that never fires to bound the peek.
func (c *Cache) solveFlight(fctx context.Context, deadline time.Time, spec engine.Spec, ext *instance.Extended, p engine.Params, f *flight, peer string) (instance.Solution, error) {
	// Peer fill: ask the key's previous owner for the finished solution
	// before burning local compute. The attempt runs under the flight's
	// context (so the last party leaving aborts the network call too);
	// its cost lands in the request's cache_ns phase, not solve_ns —
	// engineNS stays 0 on a peer hit. A peer answer that fails
	// checkFill is a miss: the flight stores only what it verified.
	if peer != "" && c.fill != nil {
		if psol, ok := c.fill(fctx, peer, spec.Name, ext, p); ok {
			if checkFill(spec, ext, p, psol) == nil {
				f.peerFill = "hit"
				c.sink.Count("cache.peer_fill_hits", 1)
				return psol, nil
			}
			c.sink.Count("cache.peer_fill_rejected", 1)
		}
		f.peerFill = "miss"
		c.sink.Count("cache.peer_fill_misses", 1)
		if err := fctx.Err(); err != nil {
			return instance.Solution{}, err // cancelled mid-fill; don't start the engine
		}
	}
	sctx := fctx
	if !deadline.IsZero() {
		sctx = deadlineCtx{fctx, deadline}
	}
	t0 := time.Now()
	sol, err := spec.Solve(sctx, &ext.Instance, p)
	f.engineNS = time.Since(t0).Nanoseconds()
	return sol, err
}

// checkFill verifies a peer's answer against the flight's relabeled
// instance: a complete assignment onto existing processors, within
// the request's k or budget per the solver's caps (a negative one
// counts as 0, as the solvers treat it), honouring the instance's
// allowed sets and conflicts, whose claimed makespan, moves and move
// cost equal the recomputed ones.
func checkFill(spec engine.Spec, ext *instance.Extended, p engine.Params, sol instance.Solution) error {
	in := &ext.Instance
	var rep verify.Report
	var err error
	switch {
	case spec.Caps.K:
		rep, err = verify.WithinMoves(in, sol.Assign, max(p.K, 0))
	case spec.Caps.Budget:
		rep, err = verify.WithinBudget(in, sol.Assign, max(p.Budget, 0))
	default:
		rep, err = verify.Solution(in, sol.Assign)
	}
	if err != nil {
		return err
	}
	if ext.Allowed != nil {
		if err := verify.AllowedSets(in, sol.Assign, ext.Allowed); err != nil {
			return err
		}
	}
	if err := verify.NoConflicts(sol.Assign, ext.Conflicts); err != nil {
		return err
	}
	if rep != (verify.Report{Makespan: sol.Makespan, Moves: sol.Moves, MoveCost: sol.MoveCost}) {
		return fmt.Errorf("cache: peer claims makespan %d, moves %d, cost %d; recomputed %d, %d, %d",
			sol.Makespan, sol.Moves, sol.MoveCost, rep.Makespan, rep.Moves, rep.MoveCost)
	}
	return nil
}

// count bumps the aggregate and per-solver counters for one event. The
// four cache.* names used at call sites hit pre-resolved counters; an
// unexpected name or an unregistered solver takes the concat fallback.
func (c *Cache) count(name, solver string) {
	if c.sink == nil {
		return
	}
	sc := c.solvers[solver]
	if sc != nil {
		switch name {
		case "cache.hits":
			c.hits.Inc()
			sc.hits.Inc()
			return
		case "cache.misses":
			c.misses.Inc()
			sc.misses.Inc()
			return
		case "cache.coalesced":
			c.coalesced.Inc()
			sc.coalesced.Inc()
			return
		case "cache.evictions":
			c.evictions.Inc()
			sc.evictions.Inc()
			return
		}
	}
	c.sink.Count(name, 1)
	c.sink.Count(name+"."+solver, 1)
}

// gaugeSize publishes the entry count and the charged bytes; the caller
// holds c.mu.
func (c *Cache) gaugeSize() {
	if c.sink == nil {
		return
	}
	c.sink.Reg.Gauge("cache.size").Set(int64(c.entries.len()))
	c.sink.Reg.Gauge("cache.bytes").Set(c.entries.bytes)
}
