// Package router is the fleet routing tier: a stateless HTTP proxy
// that spreads solve traffic over a set of rebalanced shards with a
// consistent-hash ring (internal/ring) keyed on the canonical cache
// key (internal/cache), so every canonical request — including
// permuted duplicates — lands on exactly one shard and the fleet's
// aggregate cache holds each solution exactly once. See DESIGN.md §13.
//
// Membership is health-driven: a prober polls each configured shard's
// /readyz and rebuilds the ring from the healthy subset, so a draining
// or dead shard leaves the ring (its keys move to their ring
// successors — and only those keys, the consistent-hashing guarantee)
// and a recovered shard re-enters it. For a window after a shard
// (re)joins, requests routed to it carry an X-Peer-Fill header naming
// the key's previous owner; on a local cache miss the new owner warms
// itself from that peer's /v1/peek instead of recomputing (the write
// side lives in internal/dispatch's Fill hook).
//
// Failover is request-level as well: a transport error or a 503
// (draining shard, drain-cancelled solve) rotates the request to the
// key's next ring successor, which is exactly the shard that will own
// the key once the prober catches up. Other statuses — including 429
// backpressure, which is per-shard load the caller should back off
// from, not route around — relay to the client untouched.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rebalance "repro"
	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/ring"
	"repro/internal/server"
)

// Defaults applied by New to zero Config fields.
const (
	DefaultProbeInterval = 2 * time.Second
	DefaultProbeTimeout  = time.Second
	DefaultFillWindow    = time.Minute
	DefaultMaxBodySize   = 64 << 20
	DefaultMaxBatch      = 256
)

// Config tunes a Router.
type Config struct {
	// Shards lists the fleet members' base URLs (e.g.
	// "http://10.0.0.1:8080"). The set is fixed for the router's
	// lifetime; health probing decides which members are in the ring.
	Shards []string
	// Client issues the proxied requests and health probes; nil means
	// http.DefaultClient. Per-request deadlines ride on the incoming
	// request contexts.
	Client *http.Client
	// ProbeInterval is the health-probe period. ≤ 0 means the default;
	// tests drive probes synchronously with ProbeNow instead.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe. ≤ 0 means the default.
	ProbeTimeout time.Duration
	// FillWindow is how long after a shard (re)joins the ring its
	// requests carry peer-fill hints. ≤ 0 means the default; the window
	// trades peek traffic against cold-start recomputation.
	FillWindow time.Duration
	// VNodes is the ring's virtual-node count per shard. ≤ 0 means
	// ring.DefaultVNodes.
	VNodes int
	// MaxBodyBytes bounds proxied request bodies. ≤ 0 means the package
	// default.
	MaxBodyBytes int64
	// MaxBatch bounds the number of requests in one /v1/batch call.
	// ≤ 0 means DefaultMaxBatch.
	MaxBatch int
	// Obs receives the router.* metrics; nil disables instrumentation.
	// GET /metrics exposes it in Prometheus text format.
	Obs *obs.Sink
	// Log receives structured routing logs (membership transitions);
	// nil means slog.Default().
	Log *slog.Logger
}

// member is one configured shard and its probed health state. Health
// and fill-window fields are atomics: the prober writes them while
// request goroutines read.
type member struct {
	url       string
	healthy   atomic.Bool
	fillUntil atomic.Int64 // unix nanos; requests before this carry peer-fill hints
}

// Router proxies the rebalanced API over a consistent-hash fleet.
// Create with New, expose Handler, and Close to stop the prober.
type Router struct {
	cfg     Config
	members []*member
	ring    atomic.Pointer[ring.Ring] // healthy subset; nil before the first probe
	probed  atomic.Bool               // first probe done (join windows apply after)
	stop    chan struct{}
	done    chan struct{}
	closeMu sync.Mutex
	closed  bool
}

// New normalizes cfg and returns a router. Shard addresses are
// normalized like client.New's base: a bare host:port is promoted to
// http:// and a trailing slash is trimmed. The ring is empty until the
// first probe; call ProbeNow before serving (the daemon does, and
// tests do) so startup does not answer 503 for a probe interval.
func New(cfg Config) *Router {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.FillWindow <= 0 {
		cfg.FillWindow = DefaultFillWindow
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodySize
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	rt := &Router{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, u := range cfg.Shards {
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		rt.members = append(rt.members, &member{url: strings.TrimRight(u, "/")})
	}
	go rt.probeLoop()
	return rt
}

// Close stops the prober. Idempotent.
func (rt *Router) Close() {
	rt.closeMu.Lock()
	defer rt.closeMu.Unlock()
	if !rt.closed {
		rt.closed = true
		close(rt.stop)
		<-rt.done
	}
}

func (rt *Router) probeLoop() {
	defer close(rt.done)
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
			rt.ProbeNow(ctx)
			cancel()
		case <-rt.stop:
			return
		}
	}
}

// ProbeNow probes every configured shard's /readyz once, concurrently,
// and swaps in the ring over the healthy subset. A shard transitioning
// unhealthy→healthy after the initial probe opens its peer-fill
// window. Exported so the daemon can prime the ring before listening
// and tests can drive membership deterministically.
func (rt *Router) ProbeNow(ctx context.Context) {
	_ = par.Do(ctx, len(rt.members), len(rt.members), func(i int) error {
		rt.probeMember(ctx, rt.members[i])
		return nil
	})
	first := !rt.probed.Swap(true)
	if first {
		// Baseline membership: shards healthy at startup have nothing to
		// fill from, so erase any windows probeMember opened.
		for _, m := range rt.members {
			m.fillUntil.Store(0)
		}
	}
	var healthy []string
	for _, m := range rt.members {
		if m.healthy.Load() {
			healthy = append(healthy, m.url)
		}
	}
	old := rt.ring.Load()
	next := ring.New(healthy, rt.cfg.VNodes)
	rt.ring.Store(next)
	if rt.cfg.Obs != nil {
		rt.cfg.Obs.Reg.Gauge("router.healthy_shards").Set(int64(next.Len()))
	}
	if old != nil && !sameMembers(old.Members(), next.Members()) {
		rt.log().LogAttrs(context.Background(), slog.LevelInfo, "fleet membership changed",
			slog.Int("healthy", next.Len()), slog.Int("configured", len(rt.members)))
	}
}

// probeMember probes one shard and updates its health state; a
// recovery (unhealthy→healthy) opens the peer-fill window.
func (rt *Router) probeMember(ctx context.Context, m *member) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, m.url+"/readyz", nil)
	if err != nil {
		m.healthy.Store(false)
		return
	}
	resp, err := rt.cfg.Client.Do(req)
	ok := false
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		ok = resp.StatusCode == http.StatusOK
	}
	rt.cfg.Obs.Count("router.probes", 1)
	if was := m.healthy.Swap(ok); !was && ok {
		m.fillUntil.Store(time.Now().Add(rt.cfg.FillWindow).UnixNano())
	}
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (rt *Router) log() *slog.Logger {
	if rt.cfg.Log != nil {
		return rt.cfg.Log
	}
	return slog.Default()
}

// Handler returns the router's mux: the solve-shaped endpoints proxy
// to the owning shard, the catalog and version are served locally
// (they are registry properties, identical fleet-wide), and /metrics
// exposes the router's own counters.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) { rt.proxySolve(w, r, "/v1/solve") })
	mux.HandleFunc("POST /v1/peek", func(w http.ResponseWriter, r *http.Request) { rt.proxySolve(w, r, "/v1/peek") })
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/solvers", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, dispatch.Catalog())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "healthy_shards": rt.healthyCount()})
	})
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, server.VersionResponse{Version: rebalance.Version()})
	})
	return mux
}

// Transport returns a RoundTripper that serves each request through
// Handler in the caller's goroutine, with no network hop to the
// router: a client over it routes with the router's own placement,
// failover, peer-fill hints and membership. The request URL's host is
// ignored. A request whose context ends while it is served fails with
// the context's error, as it would over a network transport.
func (rt *Router) Transport() http.RoundTripper {
	h := rt.Handler()
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		r := req.Clone(req.Context())
		if r.Body == nil {
			r.Body = http.NoBody
		}
		defer r.Body.Close()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
		resp := rec.Result()
		resp.Request = req
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func (rt *Router) healthyCount() int {
	if rg := rt.ring.Load(); rg != nil {
		return rg.Len()
	}
	return 0
}

// handleReadyz: the router is ready when at least one shard is.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	n := rt.healthyCount()
	status := http.StatusOK
	state := "ok"
	if n == 0 {
		status, state = http.StatusServiceUnavailable, "no healthy shards"
	}
	writeJSON(w, status, map[string]any{"status": state, "healthy_shards": n})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if rt.cfg.Obs == nil {
		return
	}
	_ = rt.cfg.Obs.Snapshot().WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, server.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// routeScratch is routePoint's pooled decode and keying memory.
type routeScratch struct {
	req server.SolveRequest
	can cache.CanonScratch
}

var routeScratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// routePoint places one solve body on the ring's key circle. A
// decodable solution-kind request routes by its canonical cache key —
// the same bytes the shard's cache hashes, so permuted duplicates land
// together and the ring agrees with the caches. Sweeps, unknown
// solvers, and undecodable bodies route by a content hash: still
// deterministic, and the owning shard produces the proper error.
//
// The body is decoded once, by the strict decoder into pooled memory,
// so keying a strict body allocates nothing. A body the strict decoder
// rejects falls back to json.Unmarshal (counted in
// router.decode_fallbacks); unlike the shard's stream decoder it
// rejects trailing data, so such a body keeps its content-hash point.
func (rt *Router) routePoint(body []byte) uint64 {
	sc := routeScratchPool.Get().(*routeScratch)
	defer routeScratchPool.Put(sc)
	return rt.keyPoint(sc, body)
}

// keyPoint is routePoint on the caller's scratch.
func (rt *Router) keyPoint(sc *routeScratch, body []byte) uint64 {
	req := &sc.req
	if !server.DecodeSolveStrict(body, req) {
		rt.cfg.Obs.Count("router.decode_fallbacks", 1)
		*req = server.SolveRequest{}
		if json.Unmarshal(body, req) != nil {
			return ring.Hash(body)
		}
	}
	if req.Instance.Validate() == nil {
		if spec, ok := engine.Lookup(req.Solver); ok && spec.Kind == engine.KindSolution {
			p := engine.Params{K: req.K, Budget: req.Budget, Eps: req.Eps}
			return sc.can.Canonicalize(req.Solver, spec.Caps, &req.Instance, p).Key.Point()
		}
	}
	return ring.Hash(body)
}

// proxySolve forwards one solve-shaped request to the owning shard.
func (rt *Router) proxySolve(w http.ResponseWriter, r *http.Request, path string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	rt.cfg.Obs.Count("router.requests", 1)
	status, hdr, respBody, err := rt.forward(r.Context(), path, body, r.Header.Get(server.RequestIDHeader))
	if err != nil {
		status, msg := forwardFailure(err)
		writeError(w, status, "%s", msg)
		return
	}
	relayHeaders(w, hdr)
	w.WriteHeader(status)
	_, _ = w.Write(respBody)
}

func relayHeaders(w http.ResponseWriter, hdr http.Header) {
	for _, k := range []string{"Content-Type", server.RequestIDHeader, "Retry-After"} {
		if v := hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

// errNoHealthyShard is forward's answer when the ring is empty.
var errNoHealthyShard = errors.New("no healthy shards")

// forwardFailure maps a forward error to the status and message the
// client sees: 503 when no shard is in the ring, 502 when every
// attempt failed at the transport level.
func forwardFailure(err error) (int, string) {
	if errors.Is(err, errNoHealthyShard) {
		return http.StatusServiceUnavailable, err.Error()
	}
	return http.StatusBadGateway, "no shard could serve the request: " + err.Error()
}

// forward sends body to the key's owner, rotating to ring successors
// on transport errors and 503s (a draining shard's keys belong to its
// successor — the same shard the ring promotes once the prober
// notices). The last successor's answer is relayed whatever its
// status. The returned error is errNoHealthyShard for an empty ring,
// or the last transport error when every attempt failed at the
// transport level.
func (rt *Router) forward(ctx context.Context, path string, body []byte, rid string) (int, http.Header, []byte, error) {
	rg := rt.ring.Load()
	if rg == nil || rg.Len() == 0 {
		rt.cfg.Obs.Count("router.no_healthy_shard", 1)
		return 0, nil, nil, errNoHealthyShard
	}
	point := rt.routePoint(body)
	succ := rg.Successors(point, rg.Len())
	var lastErr error
	drained := "" // last shard that answered 503: alive, draining — the peer to fill from
	for i, shard := range succ {
		peer := drained
		if i == 0 && len(succ) > 1 {
			// Within the owner's join window, warm it from the key's
			// previous owner — who is exactly its first ring successor.
			if m := rt.memberFor(shard); m != nil && m.fillUntil.Load() > time.Now().UnixNano() {
				peer = succ[1]
			}
		}
		status, hdr, respBody, err := rt.send(ctx, shard, path, body, rid, peer)
		if err != nil {
			lastErr = err
			rt.cfg.Obs.Count("router.transport_errors", 1)
			if ctx.Err() != nil {
				return 0, nil, nil, ctx.Err()
			}
			continue
		}
		if status == http.StatusServiceUnavailable && i+1 < len(succ) {
			rt.cfg.Obs.Count("router.rerouted", 1)
			drained = shard
			continue
		}
		return status, hdr, respBody, nil
	}
	// Only a transport error on the last successor gets here.
	return 0, nil, nil, lastErr
}

// memberFor maps a ring member name back to its probe state.
func (rt *Router) memberFor(url string) *member {
	for _, m := range rt.members {
		if m.url == url {
			return m
		}
	}
	return nil
}

// send issues one proxied request to one shard.
func (rt *Router) send(ctx context.Context, shard, path string, body []byte, rid, peer string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, shard+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set(server.RequestIDHeader, rid)
	}
	if peer != "" && peer != shard {
		req.Header.Set("X-Peer-Fill", peer)
		rt.cfg.Obs.Count("router.peer_fill_hints", 1)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// handleBatch fans a batch's items to their owning shards — each item
// routes independently, exactly as a single solve would — and
// reassembles the per-item statuses in request order. Identical items
// land on the same shard and coalesce in its cache, preserving the
// single-daemon batch semantics fleet-wide.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rid := server.RequestID(r)
	w.Header().Set(server.RequestIDHeader, rid)
	var breq server.BatchRequest
	body := http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&breq); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "batch contains no requests")
		return
	}
	if len(breq.Requests) > rt.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d requests exceeds the limit of %d", len(breq.Requests), rt.cfg.MaxBatch)
		return
	}
	rt.cfg.Obs.Count("router.requests", 1)
	items := make([]server.BatchItem, len(breq.Requests))
	fan := 4 * rt.healthyCount()
	if fan < 1 {
		fan = 1
	}
	_ = par.Do(r.Context(), len(breq.Requests), fan, func(i int) error {
		items[i] = rt.batchItem(r.Context(), &breq.Requests[i], rid, i)
		return nil
	})
	for i := range items {
		if items[i].Status == 0 {
			items[i] = server.BatchItem{Status: http.StatusServiceUnavailable, Error: "batch abandoned: " + context.Canceled.Error()}
		}
	}
	writeJSON(w, http.StatusOK, server.BatchResponse{Items: items})
}

// batchItem routes one batch element as an individual solve.
func (rt *Router) batchItem(ctx context.Context, req *server.SolveRequest, rid string, i int) server.BatchItem {
	body, err := json.Marshal(req)
	if err != nil {
		return server.BatchItem{Status: http.StatusBadRequest, Error: "encode item: " + err.Error()}
	}
	status, _, respBody, err := rt.forward(ctx, "/v1/solve", body, fmt.Sprintf("%s-%d", rid, i))
	if err != nil {
		status, msg := forwardFailure(err)
		return server.BatchItem{Status: status, Error: msg}
	}
	if status == http.StatusOK {
		var resp server.SolveResponse
		if derr := json.Unmarshal(respBody, &resp); derr != nil {
			return server.BatchItem{Status: http.StatusBadGateway, Error: "decode shard response: " + derr.Error()}
		}
		return server.BatchItem{Status: status, Result: &resp}
	}
	var eb server.ErrorResponse
	_ = json.Unmarshal(respBody, &eb)
	return server.BatchItem{Status: status, Error: eb.Error}
}
