package router

// The router keys every solve body with one strict decode into pooled
// memory. These tests pin that keying to a keying that decodes with
// encoding/json's stream decoder, as a shard does, and pin its
// allocation count at zero.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/server/servertest"
	"repro/internal/workload"
)

// referencePoint is the ring point of body under encoding/json's stream
// decoder, which accepts trailing data as a shard does, and the
// allocating canonicalization: what routePoint must return for every
// body.
func referencePoint(body []byte) uint64 {
	var req server.SolveRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err == nil && req.Instance.Validate() == nil {
		if spec, ok := engine.Lookup(req.Solver); ok && spec.Kind == engine.KindSolution {
			p := engine.Params{K: req.K, Budget: req.Budget, Eps: req.Eps}
			return cache.Canonicalize(req.Solver, spec.Caps, &req.Instance, p).Key.Point()
		}
	}
	return ring.Hash(body)
}

// coldSolveBody is a request shaped like the serving benchmark's
// cold-solve traffic: mpartition, k=50, n=2000 zipf-sized jobs on 16
// processors with skewed placement and a relocation cost on job 0.
func coldSolveBody(tb testing.TB) []byte {
	in := workload.Generate(workload.Config{
		N: 2000, M: 16, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 3,
	})
	in.Jobs[0].Cost = 7
	body, err := json.Marshal(server.SolveRequest{Solver: "mpartition", K: 50, Instance: instance.Extended{Instance: *in}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzDecodeSolve is the differential target for the strict decoder:
// for any bytes it must not panic; whatever it accepts must decode to
// exactly what encoding/json produces, into fresh or reused memory;
// and the router must place every body where the stream decoder's
// keying places it.
func FuzzDecodeSolve(f *testing.F) {
	for _, body := range servertest.FastDecodeCorpus() {
		f.Add([]byte(body))
	}
	f.Add(coldSolveBody(f))
	rt := &Router{}
	dirty := []byte(`{"solver":"ptas","k":9,"budget":4,"eps":0.5,"timeout_ms":3,"instance":{"m":7,"jobs":[{"id":0,"size":3,"cost":8},{"id":1,"size":6,"cost":1}],"assign":[6,5]}}`)
	f.Fuzz(func(t *testing.T, body []byte) {
		var fresh, reused server.SolveRequest
		if !server.DecodeSolveStrict(dirty, &reused) {
			t.Fatal("strict decoder rejected the dirtying body")
		}
		okFresh := server.DecodeSolveStrict(body, &fresh)
		okReused := server.DecodeSolveStrict(body, &reused)
		if okFresh != okReused {
			t.Fatalf("acceptance depends on the request's prior contents (fresh %v, reused %v)", okFresh, okReused)
		}
		if okFresh {
			var want server.SolveRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
				t.Fatalf("strict decoder accepted a body encoding/json rejects (%v): %q", err, body)
			}
			for _, got := range []*server.SolveRequest{&fresh, &reused} {
				normalizeEmpty(got)
				normalizeEmpty(&want)
				if !reflect.DeepEqual(*got, want) {
					t.Fatalf("decode mismatch for %q\nstrict: %+v\njson:   %+v", body, *got, want)
				}
			}
		}
		if got, want := rt.routePoint(body), referencePoint(body); got != want {
			t.Fatalf("routePoint = %x, stream-decoder keying = %x, for %q", got, want, body)
		}
	})
}

// normalizeEmpty maps empty job and assignment slices to nil: reused
// capacity makes the strict decoder's empty arrays non-nil.
func normalizeEmpty(req *server.SolveRequest) {
	if len(req.Instance.Jobs) == 0 {
		req.Instance.Jobs = nil
	}
	if len(req.Instance.Assign) == 0 {
		req.Instance.Assign = nil
	}
}

// TestRoutePointZeroAllocs: keying a strict body — the cold-solve
// shape, which needs a canonical permutation — allocates nothing once
// the scratch is warm, and counts no decode fallback. The scratch is
// held rather than pooled: the race detector makes sync.Pool drop
// items at random.
func TestRoutePointZeroAllocs(t *testing.T) {
	sink := obs.New()
	rt := &Router{cfg: Config{Obs: sink}}
	body := coldSolveBody(t)
	want := referencePoint(body)
	if got := rt.routePoint(body); got != want {
		t.Fatalf("routePoint = %x, want %x", got, want)
	}
	var sc routeScratch
	var got uint64
	if n := testing.AllocsPerRun(50, func() { got = rt.keyPoint(&sc, body) }); n != 0 {
		t.Fatalf("keying allocates %.1f/op on a strict body, want 0", n)
	}
	if got != want {
		t.Fatalf("warm routePoint = %x, want %x", got, want)
	}
	if n := sink.Reg.Counter("router.decode_fallbacks").Value(); n != 0 {
		t.Fatalf("router.decode_fallbacks = %d on a strict body, want 0", n)
	}
	escaped := bytes.Replace(body, []byte(`"mpartition"`), []byte(`"mp\u0061rtition"`), 1)
	if got := rt.routePoint(escaped); got != want {
		t.Fatalf("escaped body routed to %x, want the strict body's %x", got, want)
	}
	if n := sink.Reg.Counter("router.decode_fallbacks").Value(); n != 1 {
		t.Fatalf("router.decode_fallbacks = %d after an escaped body, want 1", n)
	}
}
