// HTTP handlers for rebalancing sessions (DESIGN.md §15): thin
// adapters over the dispatch core's session table, exactly as
// handleSolve adapts Do. The table, TTL eviction, and per-session
// serialization live in the core; this file owns only decoding,
// status mapping, and response rendering.
package server

import (
	"encoding/json"
	"net/http"
)

// handleSessionCreate is POST /v1/session: build a session (empty farm
// or seeded with an instance) and return its id and state. Answers 429
// when the bounded session table is full and 503 while draining.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	rid := RequestID(r)
	w.Header().Set(RequestIDHeader, rid)
	if s.core.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req SessionRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.cfg.Obs.Count("server.bad_requests", 1)
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	st, err := s.core.SessionCreate(r.Context(), &req)
	if err != nil {
		status := statusFor(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%s", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSessionDelta is POST /v1/session/{id}/delta: apply one typed
// delta (or an explicit "rebalance") to a live session. Unknown and
// expired sessions answer 404; invalid deltas 400; infeasible ones
// (draining the last processor) 422; draining 503.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	rid := RequestID(r)
	w.Header().Set(RequestIDHeader, rid)
	if s.core.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req SessionDeltaRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.cfg.Obs.Count("server.bad_requests", 1)
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	res, err := s.core.SessionDelta(r.Context(), r.PathValue("id"), &req)
	if err != nil {
		writeError(w, statusFor(err), "%s", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleSessionGet is GET /v1/session/{id}: the session's current
// state. Reads are allowed during a drain (the state is still
// consistent until Shutdown closes the table); unknown, expired, and
// drained-away sessions answer 404.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	rid := RequestID(r)
	w.Header().Set(RequestIDHeader, rid)
	st, err := s.core.SessionGet(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), "%s", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}
