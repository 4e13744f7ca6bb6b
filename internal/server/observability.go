// Observability surface of the server: request-ID minting, the
// slow-request log, and the read-only telemetry endpoints (/metrics,
// /debug/traces, /version). The solve handlers live in server.go; this
// file holds everything that observes them.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	rebalance "repro"
	"repro/internal/dispatch"
	"repro/internal/obs"
)

// maxRequestIDLen clamps client-supplied X-Request-ID values so a
// hostile header cannot bloat logs, traces, or response bodies.
const maxRequestIDLen = 128

// RequestIDHeader is X-Request-ID in its canonical MIME form, which
// Header.Get and Header.Set take as is instead of canonicalizing a copy.
// The router relays it under the same constant.
const RequestIDHeader = "X-Request-Id"

// RequestID adopts the client's X-Request-ID (clamped) or mints one.
// The ID doubles as the trace ID, so adopted IDs let a caller correlate
// its own logs with /debug/traces. The router names its batches with it
// too, so a batch's items are "<id>-<i>" through either tier.
func RequestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); id != "" {
		if len(id) > maxRequestIDLen {
			id = id[:maxRequestIDLen]
		}
		return id
	}
	return obs.NewTraceID()
}

// noteSlow logs a structured slow-request line and bumps
// server.slow_requests when the request's server-side latency reached
// the configured threshold. status is the HTTP status the request is
// about to be answered with; res carries the phase decomposition (zero
// for requests that never reached a solve slot).
func (s *Server) noteSlow(rid, solver string, res dispatch.Result, total time.Duration, status int) {
	if s.cfg.SlowThreshold <= 0 || total < s.cfg.SlowThreshold {
		return
	}
	s.cfg.Obs.Count("server.slow_requests", 1)
	log := s.cfg.Log
	if log == nil {
		log = slog.Default()
	}
	log.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
		slog.String("request_id", rid),
		slog.String("solver", solver),
		slog.Int("status", status),
		slog.Int64("queue_ns", res.QueueNS),
		slog.Int64("cache_ns", res.CacheNS),
		slog.Int64("solve_ns", res.SolveNS),
		slog.Int64("total_ns", total.Nanoseconds()),
	)
}

// handleMetrics is GET /metrics: the whole obs registry in Prometheus
// text exposition format — counters, gauges, and histograms as
// summaries. With no sink configured the exposition is valid and empty.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.PreScrape != nil {
		s.cfg.PreScrape()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.cfg.Obs == nil {
		return
	}
	_ = s.cfg.Obs.Snapshot().WritePrometheus(w)
}

// handleTraces is GET /debug/traces: the span tracer's ring of kept
// (sampled or slow) traces, newest first. With tracing off the list is
// empty, not an error, so dashboards can poll unconditionally.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, TracesResponse{Traces: s.cfg.Trace.Traces()})
}

// handleVersion is GET /version: the build-info stamp, same string the
// CLIs print under -version and the daemon publishes as an expvar.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, VersionResponse{Version: rebalance.Version()})
}
