// The pooled request scratch and the response encoder of the serving
// pipeline (Server.serve in server.go).
//
// The /v1/solve and /v1/peek handlers read the body into pooled scratch
// and decode it once, into the scratch's request (the strict decoder,
// with encoding/json only for bodies it rejects); a /v1/batch item is
// served from its decoded batch on a scratch of its own. Every request
// then takes one pipeline, however it was decoded and whatever its
// trace draw: validation, then the cache probe on the scratch's reused
// buffers, and only on a miss admission through the dispatch core. A
// hit, or a cached infeasibility, never takes a solve slot and
// allocates nothing. A miss is admitted on the pooled request itself,
// carrying the key its probe computed, so every request is
// canonicalized exactly once, hit or miss; a cache flight that may
// outlive the handler keeps its own copy of what it needs.
//
// Every solve and peek success body is built by buildResponse and
// encoded by the scratch's one json.Encoder into the scratch's reused
// buffer, so each body goes out with an exact Content-Length.
//
// The cache-facing halves (canonical probe, hit accounting) live on the
// dispatch core; this file owns only the byte-level decode and encode.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/dispatch"
	"repro/internal/instance"
)

// solveScratch carries one request's reusable buffers through the
// pipeline. Pooled; nothing in it may escape the request.
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
