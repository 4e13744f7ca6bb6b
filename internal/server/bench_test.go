package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/instance"
	"repro/internal/workload"
)

// benchKey makes cache keys unique across iterations and benchmark
// restarts (go test re-runs the function with growing b.N).
var benchKey atomic.Int64

func benchServer(b *testing.B, cfg Config) (*Server, http.Handler) {
	b.Helper()
	s := New(cfg)
	b.Cleanup(s.Close)
	return s, s.Handler()
}

func benchBody(b *testing.B, req SolveRequest) []byte {
	b.Helper()
	body, err := jsonMarshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func postBench(b *testing.B, h http.Handler, path string, body []byte, want int) {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("X-Request-ID", "bench")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != want {
		b.Fatalf("status %d, want %d: %s", w.Code, want, w.Body.String())
	}
}

// BenchmarkServerSolveHit is the zero-allocation serving path: every
// iteration after the first is a pure canonical-form cache hit.
func BenchmarkServerSolveHit(b *testing.B) {
	_, h := benchServer(b, Config{Workers: 2})
	in := instance.MustNew(4, []int64{9, 7, 5, 4, 3, 2, 2, 1}, nil, []int{0, 0, 0, 0, 1, 1, 2, 3})
	req := solveRequest("mpartition", in)
	req.K = 3
	body := benchBody(b, req)
	postBench(b, h, "/v1/solve", body, http.StatusOK) // prime the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBench(b, h, "/v1/solve", body, http.StatusOK)
	}
}

// BenchmarkServerSolveMiss measures the full decode → validate → queue
// → engine → respond path: every iteration carries a fresh move budget,
// so no request ever hits the cache or coalesces.
func BenchmarkServerSolveMiss(b *testing.B) {
	_, h := benchServer(b, Config{Workers: 2})
	in := instance.MustNew(4, []int64{9, 7, 5, 4, 3, 2, 2, 1}, nil, []int{0, 0, 0, 0, 1, 1, 2, 3})
	req := solveRequest("mpartition", in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.K = int(benchKey.Add(1))
		postBench(b, h, "/v1/solve", benchBody(b, req), http.StatusOK)
	}
}

// BenchmarkServerSolveMissCold is BenchmarkServerSolveMiss on the
// body BenchmarkDecodeSolve decodes (mpartition on n=2000, m=16, about
// 63 KiB): a miss shaped like the serving benchmark's cold-solve
// traffic, so the strict decode, the canonical key and the engine all
// weigh in. The body is encoded once, before the timer starts, without
// its k; each iteration appends a fresh ,"k":N (50, 51, …) in place,
// so every request misses and nothing is re-encoded.
func BenchmarkServerSolveMissCold(b *testing.B) {
	_, h := benchServer(b, Config{Workers: 2})
	in := workload.Generate(workload.Config{
		N: 2000, M: 16, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 3,
	})
	base := benchBody(b, solveRequest("mpartition", in)) // k omitted: ends in }}
	base = base[:len(base)-1]
	body := make([]byte, len(base), len(base)+32)
	copy(body, base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = append(strconv.AppendInt(append(body[:len(base)], `,"k":`...), int64(50+i), 10), '}')
		postBench(b, h, "/v1/solve", body, http.StatusOK)
	}
}

// BenchmarkServerBatch fans an 8-item batch (identical items, so seven
// coalesce or hit behind the first) through the pool per iteration.
func BenchmarkServerBatch(b *testing.B) {
	_, h := benchServer(b, Config{Workers: 2})
	in := instance.MustNew(4, []int64{9, 7, 5, 4, 3, 2, 2, 1}, nil, []int{0, 0, 0, 0, 1, 1, 2, 3})
	item := solveRequest("mpartition", in)
	item.K = 2
	var breq BatchRequest
	for i := 0; i < 8; i++ {
		breq.Requests = append(breq.Requests, item)
	}
	body, err := jsonMarshal(breq)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBench(b, h, "/v1/batch", body, http.StatusOK)
	}
}

// BenchmarkServerLoadMix approximates the loadgen traffic shape — 70%
// duplicate requests (hits after the first), 30% fresh instances — and
// is the profile target for `make bench-profile`.
func BenchmarkServerLoadMix(b *testing.B) {
	_, h := benchServer(b, Config{Workers: 2})
	in := instance.MustNew(4, []int64{9, 7, 5, 4, 3, 2, 2, 1}, nil, []int{0, 0, 0, 0, 1, 1, 2, 3})
	req := solveRequest("mpartition", in)
	req.K = 2
	hitBody := benchBody(b, req)
	postBench(b, h, "/v1/solve", hitBody, http.StatusOK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10 < 7 {
			postBench(b, h, "/v1/solve", hitBody, http.StatusOK)
		} else {
			req.K = int(benchKey.Add(1))
			postBench(b, h, "/v1/solve", benchBody(b, req), http.StatusOK)
		}
	}
}

func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }

// BenchmarkDecodeSolve times one decode of a body shaped like the
// serving benchmark's cold-solve traffic (mpartition, k=50, n=2000 on
// m=16, about 63 KiB): the strict decoder into a warm request, which
// every strict body now takes once, against encoding/json's stream
// decoder into a fresh one, which a miss used to pay on top of the
// strict attempt.
func BenchmarkDecodeSolve(b *testing.B) {
	in := workload.Generate(workload.Config{
		N: 2000, M: 16, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 3,
	})
	req := solveRequest("mpartition", in)
	req.K = 50
	body := benchBody(b, req)
	b.Run("strict", func(b *testing.B) {
		var req SolveRequest
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !DecodeSolveStrict(body, &req) {
				b.Fatal("strict decoder rejected the body")
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SolveRequest
			if err := decodeSolveJSON(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
