// Package server is the HTTP adapter over the transport-agnostic
// dispatch core (internal/dispatch): a long-running JSON API over the
// solver registry, production-shaped rather than a toy mux.
//
//   - POST /v1/solve   — run any registered solver (or sweep) on an
//     instance shipped in the request body.
//   - POST /v1/batch   — fan a slice of solve requests through the
//     core's solve slots; per-item results and statuses.
//   - POST /v1/peek    — probe the solution cache without solving; the
//     read side of the fleet's peer cache-fill protocol.
//   - POST /v1/session — open an incremental rebalancing session; apply
//     typed deltas at POST /v1/session/{id}/delta and read state at
//     GET /v1/session/{id} (DESIGN.md §15).
//   - GET  /v1/solvers — the solver catalog, generated from the registry.
//   - GET  /healthz    — liveness (200 while the process runs).
//   - GET  /readyz     — readiness (503 once draining begins).
//   - GET  /metrics    — the obs registry in Prometheus text format.
//   - GET  /debug/traces — ring of recent sampled/slow request traces.
//   - GET  /version    — the build-info stamp as JSON.
//
// This package owns ONLY the HTTP concerns: decoding bodies, request
// IDs and trace roots, mapping the core's typed errors onto status
// codes, and rendering responses (every solve and peek success body on
// the pooled encoder in fastpath.go). Every solve and batch item is
// served by one pipeline, serve: validate, probe the cache, and admit
// only a miss, so a cache hit never waits for a solve slot. Admission,
// deadlines, the solution cache, and the engine call live in the core;
// the import boundary — no internal/cache, no internal/engine from this
// package — is pinned by TestServerImportBoundary. A shard router or
// any future transport reuses the same core with the same semantics.
//
// Tracing: every solve carries a request ID (the client's X-Request-ID
// or a minted one), returned in the response header and body. With a
// SpanTracer configured, each sampled request is kept in /debug/traces:
// a miss as a span tree — request → queue wait, cache lookup/coalesce,
// engine solve — and a cache hit as its lone request span. Slow
// requests are kept whatever their draw; responses carry a per-phase
// `timing` decomposition either way. See DESIGN.md §11.
//
// Fleet: a Server configured with a ShardID stamps it into every solve
// response, and one configured with a PeerFill hook warms its cache
// from the key's previous owner after a membership change. Both are
// wired by cmd/rebalanced and consumed by cmd/rebalrouter's routing
// tier; see DESIGN.md §13.
//
// Graceful drain: Shutdown stops admission (readyz and new solves
// answer 503), waits for admitted solves, waiting or running, to
// finish, and on drain timeout cancels the stragglers' contexts so they
// return promptly; it returns once their cache flights have too. See
// DESIGN.md §9.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/dispatch"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/par"
)

// Defaults applied by New to zero Config fields. The serving-core
// defaults re-export internal/dispatch's so daemon flag defaults need
// only this package.
const (
	DefaultQueueDepth   = dispatch.DefaultQueueDepth
	DefaultTimeout      = dispatch.DefaultTimeout
	DefaultMaxTimeout   = dispatch.DefaultMaxTimeout
	DefaultCacheEntries = dispatch.DefaultCacheEntries
	DefaultCacheBytes   = dispatch.DefaultCacheBytes
	DefaultMaxBodySize  = 64 << 20
	DefaultMaxBatch     = 256
	DefaultMaxSessions  = dispatch.DefaultMaxSessions
	DefaultSessionTTL   = dispatch.DefaultSessionTTL
)

// FillFunc re-exports the core's peer cache-fill hook type for callers
// wiring Config.PeerFill.
type FillFunc = dispatch.FillFunc

// Config tunes a Server. The zero value is usable: New fills every
// unset field with the package default.
type Config struct {
	// Workers is the number of solve slots — the number of solves
	// running concurrently, each on its handler's goroutine. ≤ 0 means
	// runtime.GOMAXPROCS(0) (the internal/par resolution rule).
	Workers int
	// SolverWorkers is handed to each solve as engine Params.Workers
	// and to frontier sweeps as FrontierOptions.Workers. ≤ 0 means 1.
	// No solution-kind solver reads it: only the frontier sweep is
	// concurrent, and the slots already parallelize across requests.
	SolverWorkers int
	// QueueDepth bounds the solves waiting for a slot; a request
	// arriving with that many waiting is rejected with 429. ≤ 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// DefaultTimeout is the per-request deadline applied when the
	// request names none. ≤ 0 means the package default.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines. ≤ 0 means the
	// package default.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds the request body. ≤ 0 means the package
	// default.
	MaxBodyBytes int64
	// CacheEntries bounds the solution cache's LRU. 0 means
	// DefaultCacheEntries; negative disables caching, with the same
	// answers (see dispatch.Config.CacheEntries).
	CacheEntries int
	// CacheBytes bounds the solution cache's memory, as charged by
	// cache.Config.MaxBytes; the LRU evicts on whichever of the two
	// bounds binds first. ≤ 0 means DefaultCacheBytes.
	CacheBytes int64
	// MaxBatch bounds the number of requests in one /v1/batch call.
	// ≤ 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxSessions bounds the rebalancing-session table; creates beyond
	// it answer 429. ≤ 0 means DefaultMaxSessions.
	MaxSessions int
	// SessionTTL is a session's idle lifetime; one idle longer is
	// evicted and later access answers 404. ≤ 0 means
	// DefaultSessionTTL.
	SessionTTL time.Duration
	// ShardID, when set, identifies this process within a fleet: every
	// solve response carries it as "shard_id" so routers and tests can
	// verify key→shard placement. Empty (the default) omits the field.
	ShardID string
	// PeerFill, when set, lets this shard warm its cache from a peer: a
	// request arriving with an X-Peer-Fill header (the previous owner
	// of its key, per the router's ring) hands that peer's base URL to
	// the hook before the engine runs on a local miss; the daemon's hook
	// (client.PeerFill) peeks only a listed fleet member. Nil disables
	// peer fill; requests with the header still solve locally.
	PeerFill FillFunc
	// Obs receives the serving metrics (request counts, latency
	// histograms, queue depth, rejections) and is threaded into every
	// solve; nil disables instrumentation. GET /metrics exposes it in
	// Prometheus text format.
	Obs *obs.Sink
	// Trace enables request-scoped span tracing. Each solve draws its
	// sampling decision once, and a sampled request lands in the
	// tracer's ring, served at GET /debug/traces: a cache hit as a lone
	// root span, a miss as a root span with queue/cache/solve children.
	// An unsampled request is kept, in the same shape, only if it
	// reaches the tracer's SlowThreshold. Nil disables tracing; the
	// disabled path allocates nothing.
	Trace *obs.SpanTracer
	// SlowThreshold logs a structured slow-request line (and bumps
	// server.slow_requests) for any request whose server-side latency
	// reaches it. 0 disables slow-request logging.
	SlowThreshold time.Duration
	// Log receives the structured serving logs (slow requests); nil
	// means slog.Default().
	Log *slog.Logger
	// PreScrape, if set, runs at the top of every GET /metrics request —
	// the daemon wires the runtime collector's Sample here so scrapes
	// report current heap/GC/malloc figures instead of values up to a
	// collector interval old (loadgen differentiates consecutive scrapes
	// into allocation and GC-pause rates).
	PreScrape func()
}

// peerFillHeader names the routing tier's peer-fill hint: the base URL
// of the shard that owned the request's key before a membership change.
const peerFillHeader = "X-Peer-Fill"

// BaseURL normalizes a daemon address to the base URL form every fleet
// component compares and dials: a bare host:port is promoted to
// http:// and trailing slashes are trimmed. client.New's base, the
// router's shard list, and the peer-fill allow list and X-Peer-Fill
// header all go through it, so one shard has one spelling.
func BaseURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// BaseURLs splits a comma-separated list of daemon addresses (a fleet
// flag's value), drops empty entries and normalizes each with BaseURL.
func BaseURLs(list string) []string {
	var urls []string
	for _, addr := range strings.Split(list, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			urls = append(urls, BaseURL(addr))
		}
	}
	return urls
}

// Server adapts HTTP onto the dispatch core. Create with New, expose
// Handler on an http.Server, and call Shutdown to drain; a Server must
// be Shutdown (or Close) to stop the core's session janitor.
type Server struct {
	cfg  Config
	core *dispatch.Core
}

// New normalizes cfg, builds the dispatch core, and returns the
// server.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodySize
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	core := dispatch.New(dispatch.Config{
		Workers:        cfg.Workers,
		SolverWorkers:  cfg.SolverWorkers,
		QueueDepth:     cfg.QueueDepth,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		CacheEntries:   cfg.CacheEntries,
		CacheBytes:     cfg.CacheBytes,
		Obs:            cfg.Obs,
		Fill:           cfg.PeerFill,
		MaxSessions:    cfg.MaxSessions,
		SessionTTL:     cfg.SessionTTL,
	})
	return &Server{cfg: cfg, core: core}
}

// Handler returns the API mux. It may be wrapped (logging, auth) before
// being handed to an http.Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/peek", s.handlePeek)
	mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	mux.HandleFunc("POST /v1/session/{id}/delta", s.handleSessionDelta)
	mux.HandleFunc("GET /v1/session/{id}", s.handleSessionGet)
	mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /version", s.handleVersion)
	return mux
}

// Shutdown drains the server: admission stops immediately (readyz and
// new solves answer 503), then admitted solves, waiting for a slot or
// running, complete. If ctx fires first, the stragglers' solve contexts
// are cancelled — they return promptly with context errors and their
// handlers answer 503 — and ctx.Err() is reported. Every admitted
// solve, and every cache flight one started, has returned when Shutdown
// does.
func (s *Server) Shutdown(ctx context.Context) error { return s.core.Shutdown(ctx) }

// Close is Shutdown with no grace: in-flight solves are cancelled
// immediately.
func (s *Server) Close() { s.core.Close() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.core.Draining() }

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusFor maps a core error onto an HTTP status: queue or session
// table rejection 429, unknown solver or session 404, unusable request
// 400, infeasible instance or delta 422, search cut off by a solver's
// limit 422, deadline 504, cancellation (drain or disconnect) 503,
// anything else 500.
func statusFor(err error) int {
	var bad *dispatch.BadRequestError
	switch {
	case errors.Is(err, dispatch.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, dispatch.ErrSessionTableFull):
		return http.StatusTooManyRequests
	case errors.Is(err, dispatch.ErrSessionNotFound):
		return http.StatusNotFound
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, dispatch.ErrUnknownSolver):
		return http.StatusNotFound
	case errors.Is(err, dispatch.ErrUnsupported):
		return http.StatusBadRequest
	case errors.Is(err, instance.ErrInfeasible), errors.Is(err, instance.ErrSearchLimit):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// buildResponse shapes a core result for solver on instance in into the
// wire response; loads is initialStats' reusable buffer.
func (s *Server) buildResponse(solver string, in *instance.Instance, loads *[]int64, res dispatch.Result, rid string) SolveResponse {
	initial, lower := initialStats(in, loads)
	resp := SolveResponse{
		Solver:          solver,
		RequestID:       rid,
		InitialMakespan: initial,
		LowerBound:      lower,
		Cache:           res.Cache,
		ShardID:         s.cfg.ShardID,
		PeerFill:        res.PeerFill,
		Timing:          Timing{QueueNS: res.QueueNS, CacheNS: res.CacheNS, SolveNS: res.SolveNS},
	}
	if res.Sweep {
		resp.Points = res.Points
	} else {
		resp.Assign = res.Sol.Assign
		resp.Makespan = res.Sol.Makespan
		resp.Moves = res.Sol.Moves
		resp.MoveCost = res.Sol.MoveCost
	}
	return resp
}

// handleSolve is POST /v1/solve: mint or adopt the request ID, decode
// the body into pooled scratch, and serve it (or answer 503 while
// draining).
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	rid := RequestID(r)
	w.Header().Set(RequestIDHeader, rid)
	if s.core.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	sc := solveScratchPool.Get().(*solveScratch)
	defer solveScratchPool.Put(sc)
	if !s.readSolve(w, r, sc) {
		return
	}
	sc.req.PeerFill = r.Header.Get(peerFillHeader)
	resp, status, msg := s.serve(r.Context(), sc, &sc.req, rid, false)
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%s", msg)
		return
	}
	sc.encode(resp)
	sc.writeOK(w)
}

// serve is the serving pipeline of /v1/solve and of every /v1/batch
// item: validate req, probe the solution cache, and admit the request
// through the core only when the probe cannot answer it. A hit (or a
// cached infeasibility) is answered without a solve slot however the
// request was decoded and whatever its trace draw; its trace is a lone
// root span, kept when the draw or the slow threshold says so. req is
// the scratch's own request or one the caller owns; on 200 the
// response's Assign may alias sc, so the caller uses it before sc goes
// back to the pool. It returns the HTTP status and, unless it is 200,
// the error text.
func (s *Server) serve(ctx context.Context, sc *solveScratch, req *SolveRequest, rid string, batch bool) (SolveResponse, int, string) {
	if err := s.core.Validate(req); err != nil {
		return SolveResponse{}, statusFor(err), err.Error()
	}
	attrs := [...]obs.Attr{obs.String("solver", req.Solver), obs.Bool("batch", true)}
	rootAttrs := attrs[:1]
	if batch {
		rootAttrs = attrs[:]
	}
	start := time.Now()
	sampled := s.cfg.Trace.Sample()
	res, hit := s.core.TryCachedSolve(&sc.hit, req)
	var err error
	if hit {
		s.core.ObserveHit(req, &res)
		s.cfg.Trace.EndSpanless("request", rid, sampled, start, rootAttrs...)
	} else {
		res, err = s.admit(ctx, req, rid, sampled, rootAttrs)
	}
	status, msg := http.StatusOK, ""
	if err == nil {
		err = res.Err
	}
	if err != nil {
		status, msg = statusFor(err), err.Error()
	}
	s.noteSlow(rid, req.Solver, res, time.Since(start), status)
	if status != http.StatusOK {
		return SolveResponse{}, status, msg
	}
	return s.buildResponse(req.Solver, &req.Instance.Instance, &sc.loads, res, rid), status, ""
}

// admit runs a request the probe could not answer through the core,
// under a root span carrying the request's draw and attrs.
func (s *Server) admit(ctx context.Context, req *SolveRequest, rid string, sampled bool, attrs []obs.Attr) (dispatch.Result, error) {
	tctx, root := s.cfg.Trace.StartSampled(ctx, "request", rid, sampled)
	if root != nil {
		root.SetAttr(attrs...)
	}
	defer root.End()
	return s.core.Do(tctx, req)
}

// handleBatch is POST /v1/batch: decode a slice of solve requests, fan
// them through the core's solve slots, and answer per-item statuses. The batch
// as a whole is 200 as long as it was well-formed; each item carries its
// own status, result, or error, exactly as the sequential single solves
// would have produced.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	rid := RequestID(r)
	w.Header().Set(RequestIDHeader, rid)
	if s.core.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var breq BatchRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&breq); err != nil {
		s.cfg.Obs.Count("server.bad_requests", 1)
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(breq.Requests) == 0 {
		s.cfg.Obs.Count("server.bad_requests", 1)
		writeError(w, http.StatusBadRequest, "batch contains no requests")
		return
	}
	if len(breq.Requests) > s.cfg.MaxBatch {
		s.cfg.Obs.Count("server.bad_requests", 1)
		writeError(w, http.StatusBadRequest, "batch of %d requests exceeds the limit of %d", len(breq.Requests), s.cfg.MaxBatch)
		return
	}
	s.cfg.Obs.Count("server.batches", 1)
	s.cfg.Obs.Count("server.batch_items", int64(len(breq.Requests)))

	// Fan the items out. The fan-out is bounded by both the slot count
	// and the queue depth so a single batch cannot flood the admission
	// queue and 429 its own items; identical items in one batch
	// coalesce in the cache like any other concurrent duplicates.
	items := make([]BatchItem, len(breq.Requests))
	fan := s.core.PoolSize()
	if qd := s.core.QueueDepth(); fan > qd {
		fan = qd
	}
	_ = par.Do(r.Context(), len(breq.Requests), fan, func(i int) error {
		// Item IDs derive from the batch's: item i of request R is R-i,
		// so one batch's traces group under a shared prefix.
		items[i] = s.batchItem(r.Context(), &breq.Requests[i], fmt.Sprintf("%s-%d", rid, i))
		return nil
	})
	// Items skipped because the client went away (par stops claiming new
	// indices once r.Context() fires) still need a terminal status.
	for i := range items {
		if items[i].Status == 0 {
			items[i] = BatchItem{Status: http.StatusServiceUnavailable, Error: "batch abandoned: " + context.Canceled.Error()}
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: items})
}

// batchItem serves one batch element through serve, on a scratch of
// its own, and folds the outcome into a BatchItem; rid is the item's
// request/trace ID. The items are encoded after the fan-out, once the
// scratch is back in the pool, so a hit's assignment is copied out.
func (s *Server) batchItem(ctx context.Context, req *SolveRequest, rid string) BatchItem {
	sc := solveScratchPool.Get().(*solveScratch)
	defer solveScratchPool.Put(sc)
	resp, status, msg := s.serve(ctx, sc, req, rid, true)
	if status != http.StatusOK {
		return BatchItem{Status: status, Error: msg}
	}
	resp.Assign = slices.Clone(resp.Assign)
	return BatchItem{Status: status, Result: &resp}
}

// handlePeek is POST /v1/peek: probe the solution cache for a finished
// result without solving. A hit answers exactly like a cached
// /v1/solve (including cached infeasibilities as 422); a miss answers
// 404 without queuing, solving, or warming anything. This is the read
// side of the fleet's peer cache-fill protocol: after a membership
// change the new owner of a key peeks the previous owner.
func (s *Server) handlePeek(w http.ResponseWriter, r *http.Request) {
	rid := RequestID(r)
	w.Header().Set(RequestIDHeader, rid)
	// Nothing outlives the handler here: the probe runs on the scratch's
	// HitScratch, and the hit's Assign, which aliases it, is encoded
	// before the scratch goes back to the pool.
	sc := solveScratchPool.Get().(*solveScratch)
	defer solveScratchPool.Put(sc)
	if !s.readSolve(w, r, sc) {
		return
	}
	req := &sc.req
	if err := s.core.Validate(req); err != nil {
		writeError(w, statusFor(err), "%s", err.Error())
		return
	}
	s.cfg.Obs.Count("server.peeks", 1)
	res, ok := s.core.TryCachedSolve(&sc.hit, req)
	if !ok {
		writeError(w, http.StatusNotFound, "cache miss")
		return
	}
	if res.Err != nil {
		writeError(w, statusFor(res.Err), "%v", res.Err)
		return
	}
	sc.encode(s.buildResponse(req.Solver, &req.Instance.Instance, &sc.loads, res, rid))
	sc.writeOK(w)
}

// readSolve buffers a solve or peek body into sc and decodes it into
// sc.req, answering 400 itself when either step fails. The strict
// decoder runs first; a body it rejects is decoded by encoding/json and
// counted in server.decode_fallbacks.
func (s *Server) readSolve(w http.ResponseWriter, r *http.Request, sc *solveScratch) bool {
	var err error
	sc.body, err = readBody(sc.body[:0], http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil && !DecodeSolveStrict(sc.body, &sc.req) {
		s.cfg.Obs.Count("server.decode_fallbacks", 1)
		err = decodeSolveJSON(sc.body, &sc.req)
	}
	if err != nil {
		s.cfg.Obs.Count("server.bad_requests", 1)
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return false
	}
	return true
}

// handleSolvers is GET /v1/solvers.
func (s *Server) handleSolvers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Catalog())
}

// handleHealthz is GET /healthz — liveness: 200 as long as the process
// can serve HTTP, draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ReadyResponse{Status: "ok", Shard: s.cfg.ShardID, QueueDepth: s.core.QueueLen()})
}

// handleReadyz is GET /readyz — readiness: 503 once draining begins so
// load balancers (and the fleet router's health prober) stop routing
// here before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.core.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: "draining", Shard: s.cfg.ShardID, QueueDepth: s.core.QueueLen()})
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{Status: "ok", Shard: s.cfg.ShardID, QueueDepth: s.core.QueueLen()})
}
