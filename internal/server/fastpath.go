// The zero-allocation serving path for POST /v1/solve cache hits.
//
// The handler reads the body into pooled scratch and decodes it once,
// into the scratch's request (DecodeSolve: the strict decoder, with
// encoding/json only for bodies it rejects), and draws the request's
// trace sampling decision once. A strict body whose draw came out
// false — every request without a tracer, and all but SampleRate of
// them with one — then gets the allocation-free hit probe: validation,
// pooled canonicalization, LRU probe, response encode, on reused
// buffers, unless its request ID or the shard ID would need JSON
// escaping. A sampled request skips the probe, so that its trace shows
// the full span tree of the admitted path. Every other disposition (a
// miss, a fallback-decoded body, an unknown solver, invalid parameters,
// a sampled trace) takes the admitted path on a heap copy of the
// already-decoded request: a cache flight may retain a request beyond
// the handler's lifetime, so pooled memory is only ever served on a
// pure hit, where nothing escapes. A probe that missed hands its key to
// the admitted solve, so every strict body is canonicalized exactly
// once, hit or miss, and the admitted root span carries the decision
// already drawn.
//
// The cache-facing halves (solver table lookup, canonical probe, hit
// accounting) live on the dispatch core; this file owns only the byte-
// level decode and encode.
package server

import (
	"io"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/instance"
)

// solveScratch carries one request's reusable buffers through the
// handler. Pooled; nothing in it may escape the handler — detach hands
// the admitted path its own copy of the request.
type solveScratch struct {
	body  []byte
	req   SolveRequest
	hit   dispatch.HitScratch
	loads []int64
	out   []byte
}

var solveScratchPool = sync.Pool{New: func() any { return new(solveScratch) }}

// detach returns a heap copy of the decoded request that shares no
// reused memory with the scratch: the job and assignment arrays, the
// only slices the strict decoder reuses, are copied (not re-parsed).
// The extension and sweep slices only ever come from the encoding/json
// fallback, which decodes into fresh memory, so the copy may share them.
func (sc *solveScratch) detach() *SolveRequest {
	req := new(SolveRequest)
	*req = sc.req
	req.Instance.Jobs = slices.Clone(sc.req.Instance.Jobs)
	req.Instance.Assign = slices.Clone(sc.req.Instance.Assign)
	return req
}

// readBody reads r into dst's capacity, growing as needed. Identical
// error surface to draining the reader through encoding/json: an
// http.MaxBytesReader limit violation returns its *MaxBytesError.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	if cap(dst) == 0 {
		dst = make([]byte, 0, 4096)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// fastOutcome is fastSolve's disposition.
type fastOutcome int

const (
	// fastFallback: the request is outside the fast path; the caller
	// detaches the decoded request and admits it.
	fastFallback fastOutcome = iota
	// fastMiss: the probe keyed the request and missed; the caller
	// admits it as for fastFallback, handing on the probe's key
	// (HitScratch.KeyInto).
	fastMiss
	// fastHit: sc.out holds the complete 200 response body.
	fastHit
	// fastCachedError: the cache holds a deterministic error for this
	// request (an infeasibility); respond with it.
	fastCachedError
)

// fastSolve attempts the allocation-free hit probe on sc.req, which
// the strict decoder has filled; the caller has already ruled out a
// sampled trace. On fastHit the response body is in sc.out; on
// fastCachedError the returned error is the cached one. It performs the
// same counter accounting an admitted hit would (request/latency/phase
// metrics, cache.hits), so a served hit is indistinguishable from the
// slow path in /metrics.
func (s *Server) fastSolve(sc *solveScratch, rid string) (fastOutcome, error) {
	if !s.shardSafe || !plainJSONSafe(rid) {
		return fastFallback, nil
	}
	start := time.Now()
	req := &sc.req
	ent := s.core.LookupSolver(req.Solver)
	if ent == nil || !ent.Solution() {
		return fastFallback, nil
	}
	in := &req.Instance.Instance
	if in.Validate() != nil {
		return fastFallback, nil
	}
	// Tuning flags the solver does not consume reject with 400 on the
	// slow path; nonzero counts as set, mirroring Validate.
	if !ent.AcceptsParams(req.K, req.Budget, req.Eps) {
		return fastFallback, nil
	}
	sol, hit, err := s.core.TryCachedSolve(&sc.hit, ent, &req.Instance, req.K, req.Budget, req.Eps)
	if !hit {
		return fastMiss, nil
	}
	totalNS := time.Since(start).Nanoseconds()
	s.core.ObserveHit(ent, totalNS, err)
	if err != nil {
		return fastCachedError, err
	}
	initial, lower := sc.initialStats(in)
	sc.out = appendSolveResponse(sc.out[:0], ent.Name(), rid, s.cfg.ShardID, sol, initial, lower, totalNS)
	return fastHit, nil
}

// initialStats computes the initial makespan and the packing lower
// bound on scratch loads, avoiding Instance.Loads' allocation.
func (sc *solveScratch) initialStats(in *instance.Instance) (initial, lower int64) {
	sc.loads = instance.GrowSlice(sc.loads, in.M)
	for i := range sc.loads {
		sc.loads[i] = 0
	}
	var total, maxSize int64
	for j := range in.Jobs {
		sz := in.Jobs[j].Size
		sc.loads[in.Assign[j]] += sz
		total += sz
		if sz > maxSize {
			maxSize = sz
		}
	}
	for _, l := range sc.loads {
		if l > initial {
			initial = l
		}
	}
	lower = (total + int64(in.M) - 1) / int64(in.M)
	if maxSize > lower {
		lower = maxSize
	}
	return initial, lower
}

// plainJSONSafe reports whether s encodes into a JSON string verbatim
// under encoding/json's escaper (printable ASCII, no quote, backslash,
// or HTML-escaped characters). Anything else routes to the slow path
// rather than replicating the escaper.
func plainJSONSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendSolveResponse encodes the hit response exactly as
// writeJSON(w, 200, buildResponse(...)) would: same field order, same
// omitempty behaviour, trailing newline from json.Encoder included.
// Only plainJSONSafe strings reach it, so no escaping is needed. A hit
// never has a peer_fill (the peer is consulted only on a miss), so that
// field is always omitted here.
func appendSolveResponse(dst []byte, solver, rid, shardID string, sol instance.Solution, initial, lower, cacheNS int64) []byte {
	dst = append(dst, `{"solver":"`...)
	dst = append(dst, solver...)
	dst = append(dst, `","request_id":"`...)
	dst = append(dst, rid...)
	dst = append(dst, '"')
	if len(sol.Assign) > 0 {
		dst = append(dst, `,"assign":[`...)
		for i, p := range sol.Assign {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(p), 10)
		}
		dst = append(dst, ']')
	}
	if sol.Makespan != 0 {
		dst = append(dst, `,"makespan":`...)
		dst = strconv.AppendInt(dst, sol.Makespan, 10)
	}
	if sol.Moves != 0 {
		dst = append(dst, `,"moves":`...)
		dst = strconv.AppendInt(dst, int64(sol.Moves), 10)
	}
	if sol.MoveCost != 0 {
		dst = append(dst, `,"move_cost":`...)
		dst = strconv.AppendInt(dst, sol.MoveCost, 10)
	}
	dst = append(dst, `,"initial_makespan":`...)
	dst = strconv.AppendInt(dst, initial, 10)
	dst = append(dst, `,"lower_bound":`...)
	dst = strconv.AppendInt(dst, lower, 10)
	dst = append(dst, `,"cache":"hit"`...)
	if shardID != "" {
		dst = append(dst, `,"shard_id":"`...)
		dst = append(dst, shardID...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"timing":{"queue_ns":0,"cache_ns":`...)
	dst = strconv.AppendInt(dst, cacheNS, 10)
	dst = append(dst, `,"solve_ns":0}}`...)
	dst = append(dst, '\n')
	return dst
}
