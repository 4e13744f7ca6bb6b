// The zero-allocation serving path for POST /v1/solve cache hits.
//
// The handler reads the body into pooled scratch and decodes it once,
// into the scratch's request (DecodeSolve: the strict decoder, with
// encoding/json only for bodies it rejects), and draws the request's
// trace sampling decision once. A strict body whose draw came out
// false — every request without a tracer, and all but SampleRate of
// them with one — then gets the allocation-free hit probe: validation,
// pooled canonicalization, LRU probe, response encode, on reused
// buffers. A sampled request skips the probe, so that its trace shows
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
// Every solve and peek success body, fast or admitted, is built by
// buildResponse and encoded by the scratch's one json.Encoder into the
// scratch's reused buffer, so the two paths answer byte-identically and
// each body goes out with an exact Content-Length.
//
// The cache-facing halves (solver table lookup, canonical probe, hit
// accounting) live on the dispatch core; this file owns only the byte-
// level decode and encode.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
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
	resp  SolveResponse
	out   bytes.Buffer
	enc   *json.Encoder // writes to out
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
	// fastFallback: the probe cannot answer the request (an unknown or
	// sweep solver, an invalid instance, or a parameter the solver does
	// not take); the caller detaches the decoded request and admits it,
	// and the admitted path answers it.
	fastFallback fastOutcome = iota
	// fastMiss: the probe keyed the request and missed; the caller
	// admits it as for fastFallback, handing on the probe's key
	// (HitScratch.KeyInto).
	fastMiss
	// fastHit: the returned result is the cached solution; the caller
	// encodes it like any other 200.
	fastHit
	// fastCachedError: the cache holds a deterministic error for this
	// request (an infeasibility), in the returned result's Err; respond
	// with it.
	fastCachedError
)

// fastSolve attempts the allocation-free hit probe on sc.req, which
// the strict decoder has filled; the caller has already ruled out a
// sampled trace. On fastHit the result's solution aliases sc.hit, so
// the caller encodes it before the scratch goes back to the pool. It
// performs the same counter accounting an admitted hit would
// (request/latency/phase metrics, cache.hits), so a served hit is
// indistinguishable from the slow path in /metrics.
func (s *Server) fastSolve(sc *solveScratch) (fastOutcome, dispatch.Result) {
	start := time.Now()
	req := &sc.req
	ent := s.core.LookupSolver(req.Solver)
	if ent == nil || !ent.Solution() {
		return fastFallback, dispatch.Result{}
	}
	if req.Instance.Instance.Validate() != nil {
		return fastFallback, dispatch.Result{}
	}
	// Tuning flags the solver does not consume reject with 400 on the
	// slow path; nonzero counts as set, mirroring Validate.
	if !ent.AcceptsParams(req.K, req.Budget, req.Eps) {
		return fastFallback, dispatch.Result{}
	}
	sol, hit, err := s.core.TryCachedSolve(&sc.hit, ent, &req.Instance, req.K, req.Budget, req.Eps)
	if !hit {
		return fastMiss, dispatch.Result{}
	}
	totalNS := time.Since(start).Nanoseconds()
	s.core.ObserveHit(ent, totalNS, err)
	if err != nil {
		return fastCachedError, dispatch.Result{Err: err}
	}
	return fastHit, dispatch.Result{Sol: sol, Cache: "hit", CacheNS: totalNS}
}

// encode renders resp into sc.out on the scratch's encoder: the one
// encoder of every /v1/solve and /v1/peek success body. resp is held
// on the scratch while it encodes, so passing it to the encoder boxes
// nothing, and dropped afterwards, so the pool retains no solution.
func (sc *solveScratch) encode(resp SolveResponse) {
	if sc.enc == nil {
		sc.enc = json.NewEncoder(&sc.out)
	}
	sc.out.Reset()
	sc.resp = resp
	_ = sc.enc.Encode(&sc.resp)
	sc.resp = SolveResponse{}
}

// chunkingThreshold is net/http's bufferBeforeChunkingSize: a handler
// that writes no more than this and sets no Content-Length gets an
// exact one from the server, computed without allocating; a longer body
// goes out chunked unless the handler sets the header itself.
const chunkingThreshold = 2048

// writeOK answers 200 with the body encode left in sc.out. The body is
// complete before the first byte goes out, so it always carries an
// exact Content-Length: written here for a body net/http would chunk,
// and left to net/http (which sets it for free) for a shorter one, such
// as a typical cache hit.
func (sc *solveScratch) writeOK(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if sc.out.Len() > chunkingThreshold {
		h.Set("Content-Length", strconv.Itoa(sc.out.Len()))
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.out.Bytes())
}

// initialStats computes the initial makespan and the packing lower
// bound, max(ceil(total/m), largest job), summing the per-processor
// loads in *loads (grown as needed) rather than allocating them as
// Instance.Loads would.
func initialStats(in *instance.Instance, loads *[]int64) (initial, lower int64) {
	ls := instance.GrowSlice(*loads, in.M)
	*loads = ls
	clear(ls)
	var total, maxSize int64
	for j := range in.Jobs {
		sz := in.Jobs[j].Size
		ls[in.Assign[j]] += sz
		total += sz
		maxSize = max(maxSize, sz)
	}
	for _, l := range ls {
		initial = max(initial, l)
	}
	lower = max((total+int64(in.M)-1)/int64(in.M), maxSize)
	return initial, lower
}
