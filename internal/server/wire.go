// Wire format of the rebalanced HTTP API. The request and catalog
// shapes are aliases of the dispatch core's canonical types (the body
// embeds the same extended-instance JSON that genwork writes and the
// CLI reads, so a file produced by `genwork` can be pasted into the
// "instance" field unchanged); the response shapes are HTTP-specific
// and live here. The response carries the solver's solution (or, for
// sweep-kind solvers, the tradeoff curve) plus queue/solve timings so
// callers can see admission latency separately from compute.
package server

import (
	"repro/internal/dispatch"
	"repro/internal/obs"
)

// SolveRequest is the body of POST /v1/solve (and /v1/peek): the
// dispatch core's canonical request shape.
type SolveRequest = dispatch.Request

// SweepPoint is one point of a sweep-kind solver's tradeoff curve.
type SweepPoint = dispatch.SweepPoint

// Timing splits one request's server-side latency into phases, all in
// nanoseconds: admission-queue wait, solution-cache time (lookup,
// canonicalization, coalesce wait and peer fill, excluding engine
// compute; zero for sweeps and with caching disabled), and engine
// compute (the flight's measured solve for cache misses and coalesced
// waits, zero for hits).
type Timing struct {
	QueueNS int64 `json:"queue_ns"`
	CacheNS int64 `json:"cache_ns"`
	SolveNS int64 `json:"solve_ns"`
}

// SolveResponse is the success body of POST /v1/solve.
type SolveResponse struct {
	// Solver echoes the request's solver name.
	Solver string `json:"solver"`
	// RequestID identifies this request: the client's X-Request-ID when
	// one was sent, a server-minted ID otherwise. It doubles as the
	// trace ID in /debug/traces and the slow-request log.
	RequestID string `json:"request_id"`
	// Assign, Makespan, Moves and MoveCost describe the solution of a
	// solution-kind solver (absent for sweeps).
	Assign   []int `json:"assign,omitempty"`
	Makespan int64 `json:"makespan,omitempty"`
	Moves    int   `json:"moves,omitempty"`
	MoveCost int64 `json:"move_cost,omitempty"`
	// Points is the tradeoff curve of a sweep-kind solver.
	Points []SweepPoint `json:"points,omitempty"`
	// InitialMakespan and LowerBound contextualize the result: the
	// makespan before rebalancing and max(ceil(total/m), max job size).
	InitialMakespan int64 `json:"initial_makespan"`
	LowerBound      int64 `json:"lower_bound"`
	// Cache reports how the solution cache served this solve: "hit",
	// "miss", or "coalesced". Empty when the request bypassed the cache
	// (sweeps, or caching disabled).
	Cache string `json:"cache,omitempty"`
	// ShardID identifies the fleet member that served this solve; empty
	// outside a fleet (no -shard-id configured).
	ShardID string `json:"shard_id,omitempty"`
	// PeerFill reports the peer cache warm-up on a local miss: "hit"
	// (the previous owner supplied the solution; no engine run) or
	// "miss" (it didn't; the engine ran). Empty when no peer was
	// consulted.
	PeerFill string `json:"peer_fill,omitempty"`
	// Timing is the per-phase server-side latency decomposition.
	Timing Timing `json:"timing"`
}

// BatchRequest is the body of POST /v1/batch: a slice of solve
// requests fanned through the core's solve slots.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// BatchItem is the outcome of one batch element — the HTTP status,
// result, and error that the same request would have produced as a
// single POST /v1/solve.
type BatchItem struct {
	Status int            `json:"status"`
	Result *SolveResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// BatchResponse is the success body of POST /v1/batch; Items is in
// request order.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// SessionRequest is the body of POST /v1/session: the core's canonical
// session-create shape.
type SessionRequest = dispatch.SessionRequest

// SessionDeltaRequest is the body of POST /v1/session/{id}/delta.
type SessionDeltaRequest = dispatch.SessionDeltaRequest

// SessionState is the body of GET /v1/session/{id} and the create
// response.
type SessionState = dispatch.SessionState

// SessionDeltaResult is the success body of a delta: the post-delta
// state plus the forced and rebalance migrations.
type SessionDeltaResult = dispatch.SessionDeltaResult

// SessionMove is one migration on the wire.
type SessionMove = dispatch.SessionMove

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SolverInfo is one entry of GET /v1/solvers — the registry spec
// flattened into a wire-friendly shape.
type SolverInfo = dispatch.SolverInfo

// Catalog renders the engine registry as the GET /v1/solvers payload.
func Catalog() []SolverInfo { return dispatch.Catalog() }

// ReadyResponse is the body of GET /readyz and GET /healthz.
type ReadyResponse struct {
	Status string `json:"status"` // "ok" or "draining"
	// Shard is the serving process's fleet identity (empty outside a
	// fleet); the router's health prober uses it for log context.
	Shard      string `json:"shard,omitempty"`
	QueueDepth int    `json:"queue_depth"`
}

// VersionResponse is the body of GET /version: the same build-info
// stamp the CLIs print under -version.
type VersionResponse struct {
	Version string `json:"version"`
}

// TracesResponse is the body of GET /debug/traces: the span tracer's
// kept traces, newest first.
type TracesResponse struct {
	Traces []obs.Trace `json:"traces"`
}
