package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/server/client"
)

// shard is one in-process rebalanced daemon under httptest. requests
// counts everything but health probes; setting draining makes those
// requests answer 503 while /readyz still reports ready, as a shard
// does in the window before the prober notices its drain.
type shard struct {
	id       string
	srv      *server.Server
	ts       *httptest.Server
	sink     *obs.Sink
	requests atomic.Int64
	draining atomic.Bool
}

func (s *shard) close() {
	s.ts.Close()
	s.srv.Close()
}

// startShard boots a daemon with a shard identity and the peer-fill
// hook enabled, exactly as `rebalanced -shard-id sN -peer-fill` would.
func startShard(t *testing.T, id string) *shard {
	t.Helper()
	sink := obs.New()
	srv := server.New(server.Config{
		Workers:  2,
		ShardID:  id,
		PeerFill: client.PeerFill(nil, time.Second),
		Obs:      sink,
	})
	sh := &shard{id: id, srv: srv, sink: sink}
	h := srv.Handler()
	sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			sh.requests.Add(1)
			if sh.draining.Load() {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(server.ErrorResponse{Error: "server is draining"})
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(sh.close)
	return sh
}

// startRouter builds a router over the given shard URLs with the
// background prober effectively off; tests drive ProbeNow themselves.
func startRouter(t *testing.T, urls []string) (*Router, *httptest.Server) {
	t.Helper()
	rt := New(Config{
		Shards:        urls,
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
		Obs:           obs.New(),
	})
	t.Cleanup(rt.Close)
	rt.ProbeNow(context.Background())
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// testReq builds the i-th distinct solve request: same shape, distinct
// job sizes, so each i has its own canonical cache key.
func testReq(i int) server.SolveRequest {
	sizes := []int64{9 + int64(i), 7, 5, 3, 2}
	in := instance.MustNew(2, sizes, nil, []int{0, 0, 0, 0, 0})
	req := server.SolveRequest{Solver: "mpartition", K: 3}
	req.Instance.Instance = *in
	return req
}

// TestFleetEndToEnd drives dup-heavy traffic through a 3-shard fleet
// and pins the sharding contract: every canonical key is served by
// exactly one shard, repeats hit that shard's cache (aggregate hits ==
// total − distinct), permuted duplicates land with their canonical
// twin, and killing a shard moves that shard's keys — and only those —
// to live successors.
func TestFleetEndToEnd(t *testing.T) {
	shards := []*shard{startShard(t, "s0"), startShard(t, "s1"), startShard(t, "s2")}
	urls := []string{shards[0].ts.URL, shards[1].ts.URL, shards[2].ts.URL}
	rt, rts := startRouter(t, urls)

	cl := client.New(rts.URL, nil)
	ctx := context.Background()
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("router not ready: %v", err)
	}

	const distinct, repeats = 12, 3
	ownerOf := make(map[int]string) // key index → serving shard id
	var hits, misses int
	for round := 0; round < repeats; round++ {
		for i := 0; i < distinct; i++ {
			resp, err := cl.Solve(ctx, testReq(i))
			if err != nil {
				t.Fatalf("solve %d round %d: %v", i, round, err)
			}
			if resp.ShardID == "" {
				t.Fatalf("solve %d: response carries no shard_id", i)
			}
			if prev, ok := ownerOf[i]; ok && prev != resp.ShardID {
				t.Fatalf("key %d served by %s and %s: one canonical key must live on one shard", i, prev, resp.ShardID)
			}
			ownerOf[i] = resp.ShardID
			switch resp.Cache {
			case "hit":
				hits++
			case "miss":
				misses++
			default:
				t.Fatalf("solve %d: unexpected cache outcome %q", i, resp.Cache)
			}
		}
	}
	if misses != distinct || hits != distinct*(repeats-1) {
		t.Fatalf("fleet cache: %d misses %d hits, want %d misses %d hits (each key computed once, fleet-wide)",
			misses, hits, distinct, distinct*(repeats-1))
	}
	owners := map[string]bool{}
	for _, o := range ownerOf {
		owners[o] = true
	}
	if len(owners) < 2 {
		t.Fatalf("all %d keys landed on one shard; ring is not spreading (owners=%v)", distinct, owners)
	}

	// A permuted duplicate — same jobs, shuffled order — canonicalizes
	// to the same key, so it must land on key 0's shard as a hit.
	perm := testReq(0)
	in := &perm.Instance.Instance
	for j, k := 0, len(in.Jobs)-1; j < k; j, k = j+1, k-1 {
		in.Jobs[j], in.Jobs[k] = in.Jobs[k], in.Jobs[j]
		in.Assign[j], in.Assign[k] = in.Assign[k], in.Assign[j]
	}
	for j := range in.Jobs {
		in.Jobs[j].ID = j // IDs are positional; renumber after the shuffle
	}
	resp, err := cl.Solve(ctx, perm)
	if err != nil {
		t.Fatalf("permuted solve: %v", err)
	}
	if resp.ShardID != ownerOf[0] || resp.Cache != "hit" {
		t.Fatalf("permuted duplicate: shard=%s cache=%s, want shard=%s cache=hit", resp.ShardID, resp.Cache, ownerOf[0])
	}

	// Kill one shard that owns at least one key and re-probe: its keys
	// move to live shards, every other key stays put and stays cached.
	victim := ownerOf[0]
	for _, sh := range shards {
		if sh.id == victim {
			sh.close()
		}
	}
	rt.ProbeNow(ctx)
	if got := rt.healthyCount(); got != 2 {
		t.Fatalf("healthy shards after kill = %d, want 2", got)
	}

	moved := 0
	for i := 0; i < distinct; i++ {
		resp, err := cl.Solve(ctx, testReq(i))
		if err != nil {
			t.Fatalf("solve %d after kill: %v", i, err)
		}
		if resp.ShardID == victim {
			t.Fatalf("key %d still served by killed shard %s", i, victim)
		}
		if ownerOf[i] == victim {
			moved++
			continue
		}
		// Keys of surviving shards must not move — the consistent-hash
		// guarantee — and their caches are still warm.
		if resp.ShardID != ownerOf[i] {
			t.Fatalf("key %d moved %s→%s though its owner survived", i, ownerOf[i], resp.ShardID)
		}
		if resp.Cache != "hit" {
			t.Fatalf("key %d on surviving shard %s: cache=%q, want hit", i, resp.ShardID, resp.Cache)
		}
	}
	if moved == 0 {
		t.Fatalf("killed shard %s owned no keys; test did not exercise movement", victim)
	}
}

// TestFleetBatchThroughRouter pins that /v1/batch fans per item: the
// duplicate items of one batch land on one shard and coalesce in its
// cache while distinct items spread.
func TestFleetBatchThroughRouter(t *testing.T) {
	shards := []*shard{startShard(t, "s0"), startShard(t, "s1"), startShard(t, "s2")}
	_, rts := startRouter(t, []string{shards[0].ts.URL, shards[1].ts.URL, shards[2].ts.URL})
	cl := client.New(rts.URL, nil)

	var reqs []server.SolveRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs, testReq(i%3)) // each distinct key twice
	}
	items, err := cl.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	shardOf := map[int]string{}
	for i, it := range items {
		if it.Status != http.StatusOK || it.Result == nil {
			t.Fatalf("item %d: status %d error %q", i, it.Status, it.Error)
		}
		key := i % 3
		if prev, ok := shardOf[key]; ok && prev != it.Result.ShardID {
			t.Fatalf("batch key %d split across shards %s and %s", key, prev, it.Result.ShardID)
		}
		shardOf[key] = it.Result.ShardID
	}

	// The batch keeps the request ID exactly as a shard does: the
	// client's ID (or a minted one) on the response, "<id>-<i>" on the
	// items.
	body, _ := json.Marshal(server.BatchRequest{Requests: reqs[:2]})
	for _, sent := range []string{"R", ""} {
		hreq, _ := http.NewRequest(http.MethodPost, rts.URL+"/v1/batch", bytes.NewReader(body))
		if sent != "" {
			hreq.Header.Set(server.RequestIDHeader, sent)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var br server.BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		rid := resp.Header.Get(server.RequestIDHeader)
		if rid == "" || (sent != "" && rid != sent) {
			t.Fatalf("sent request ID %q, batch answered %q", sent, rid)
		}
		for i, it := range br.Items {
			if want := fmt.Sprintf("%s-%d", rid, i); it.Result == nil || it.Result.RequestID != want {
				t.Fatalf("sent %q: item %d = %+v, want request ID %q", sent, i, it, want)
			}
		}
	}
}

// TestRouterReroutesAroundDrainingShard pins request-level failover:
// a shard answering 503 does not fail the request — it lands on the
// key's ring successor, and the forwarded retry names the draining
// shard as a peer-fill source so its warm cache is not wasted.
func TestRouterReroutesAroundDrainingShard(t *testing.T) {
	healthy := startShard(t, "alive")
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK) // looks ready to the prober…
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable) // …but 503s every solve
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "server is draining"})
	}))
	t.Cleanup(draining.Close)

	rt, rts := startRouter(t, []string{healthy.ts.URL, draining.URL})
	cl := client.New(rts.URL, nil)
	ctx := context.Background()

	// A key the draining shard owns, so the 503 path actually runs.
	req := ownedBy(t, rt, draining.URL)
	resp, err := cl.Solve(ctx, req)
	if err != nil {
		t.Fatalf("solve via draining owner: %v", err)
	}
	if resp.ShardID != "alive" {
		t.Fatalf("rerouted solve served by %q, want %q", resp.ShardID, "alive")
	}
	if rt.cfg.Obs.Reg.Counter("router.rerouted").Value() == 0 {
		t.Fatal("router.rerouted not incremented")
	}
}

// TestRouterPeerFillOnJoin boots a 2-shard fleet, warms a key that a
// third (down) shard will own, then starts the third shard: its first
// request must land on it, carry the previous owner as a peer-fill
// hint, and be answered from the peer's cache — a miss locally, a hit
// fleet-wise, with no second engine run.
func TestRouterPeerFillOnJoin(t *testing.T) {
	a, b := startShard(t, "a"), startShard(t, "b")

	// The joiner's URL must be in the router's shard set before the
	// process exists: reserve a listener now, start the server on it
	// later — the -shards flag workflow, compressed into one test.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	joinURL := "http://" + ln.Addr().String()

	rt, rts := startRouter(t, []string{a.ts.URL, b.ts.URL, joinURL})
	cl := client.New(rts.URL, nil)
	ctx := context.Background()
	if got := rt.healthyCount(); got != 2 {
		t.Fatalf("healthy shards before join = %d, want 2", got)
	}

	// Pick a key the joiner will own once healthy (ownership under the
	// full 3-member ring), currently served by its successor.
	full := ring.New([]string{a.ts.URL, b.ts.URL, joinURL}, 0)
	var req server.SolveRequest
	for i := 0; ; i++ {
		if i > 128 {
			t.Fatal("no key in 0..128 owned by the joining shard")
		}
		req = testReq(i)
		body, _ := json.Marshal(req)
		if owner, _ := full.Owner(rt.routePoint(body)); owner == joinURL {
			break
		}
	}
	warm, err := cl.Solve(ctx, req)
	if err != nil {
		t.Fatalf("warmup solve: %v", err)
	}
	if warm.Cache != "miss" {
		t.Fatalf("warmup solve cache=%q, want miss", warm.Cache)
	}
	prevOwner := warm.ShardID

	// Start the joiner on the reserved address and let the prober see it.
	joiner := obs.New()
	jsrv := server.New(server.Config{
		Workers:  2,
		ShardID:  "joiner",
		PeerFill: client.PeerFill(nil, time.Second),
		Obs:      joiner,
	})
	jts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: jsrv.Handler()}}
	jts.Start()
	t.Cleanup(func() {
		jts.Close()
		jsrv.Close()
	})
	rt.ProbeNow(ctx)
	if got := rt.healthyCount(); got != 3 {
		t.Fatalf("healthy shards after join = %d, want 3", got)
	}

	resp, err := cl.Solve(ctx, req)
	if err != nil {
		t.Fatalf("solve after join: %v", err)
	}
	if resp.ShardID != "joiner" {
		t.Fatalf("key served by %q after join, want %q", resp.ShardID, "joiner")
	}
	if resp.Cache != "miss" || resp.PeerFill != "hit" {
		t.Fatalf("join solve cache=%q peer_fill=%q, want miss with peer_fill=hit (warmed from %s)", resp.Cache, resp.PeerFill, prevOwner)
	}
	if got := joiner.Reg.Counter("cache.peer_fill_hits").Value(); got != 1 {
		t.Fatalf("joiner cache.peer_fill_hits = %d, want 1", got)
	}
	if rt.cfg.Obs.Reg.Counter("router.peer_fill_hints").Value() == 0 {
		t.Fatal("router.peer_fill_hints not incremented")
	}

	// The fill wrote through to the joiner's cache: the next solve is a
	// plain local hit, no peek traffic.
	resp, err = cl.Solve(ctx, req)
	if err != nil {
		t.Fatalf("second solve after join: %v", err)
	}
	if resp.ShardID != "joiner" || resp.Cache != "hit" {
		t.Fatalf("second join solve shard=%q cache=%q, want joiner/hit", resp.ShardID, resp.Cache)
	}
}

// TestRouterRelaysAuthoritativeErrors pins that per-request errors —
// an unknown solver's 404 here — pass through with the shard's status
// and message instead of triggering failover: exactly one shard of the
// fleet sees the request.
func TestRouterRelaysAuthoritativeErrors(t *testing.T) {
	a, b := startShard(t, "a"), startShard(t, "b")
	_, rts := startRouter(t, []string{a.ts.URL, b.ts.URL})
	cl := client.New(rts.URL, nil)

	req := testReq(0)
	req.Solver = "no-such-solver"
	_, err := cl.Solve(context.Background(), req)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want APIError 404", err)
	}
	if na, nb := a.requests.Load(), b.requests.Load(); na+nb != 1 {
		t.Fatalf("shards saw %d and %d requests for an authoritative 404, want 1 in total", na, nb)
	}
}

// TestRouterRelaysBackpressure pins that a shard's 429 is the caller's
// to back off from, not the router's to route around: the status and
// its Retry-After reach the client, and no other shard is asked.
func TestRouterRelaysBackpressure(t *testing.T) {
	other := startShard(t, "other")
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "3")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "admission queue full"})
	}))
	t.Cleanup(full.Close)

	rt, rts := startRouter(t, []string{other.ts.URL, full.URL})
	req := ownedBy(t, rt, full.URL)
	_, err := client.New(rts.URL, nil).Solve(context.Background(), req)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want APIError 429", err)
	}
	if ae.RetryAfter != 3*time.Second || ae.Message != "admission queue full" {
		t.Fatalf("relayed 429: Retry-After %v message %q, want 3s and the shard's message", ae.RetryAfter, ae.Message)
	}
	if n := other.requests.Load(); n != 0 {
		t.Fatalf("the other shard saw %d requests after a 429, want 0", n)
	}
}

// ownedBy returns the first testReq whose key the router's current
// ring places on shard.
func ownedBy(t *testing.T, rt *Router, shard string) server.SolveRequest {
	t.Helper()
	rg := rt.ring.Load()
	for i := 0; i <= 64; i++ {
		req := testReq(i)
		body, _ := json.Marshal(req)
		if owner, _ := rg.Owner(rt.routePoint(body)); owner == shard {
			return req
		}
	}
	t.Fatalf("no key in 0..64 owned by %s", shard)
	return server.SolveRequest{}
}

// TestTransportRoutesInProcess pins that a client over the router's
// Transport is the router without the hop: every key is served by its
// ring owner, a key whose owner answers 503 fails over to its ring
// successor, and readiness and batches work through it.
func TestTransportRoutesInProcess(t *testing.T) {
	shards := []*shard{startShard(t, "s0"), startShard(t, "s1"), startShard(t, "s2")}
	idOf := map[string]string{}
	var urls []string
	for _, sh := range shards {
		idOf[sh.ts.URL] = sh.id
		urls = append(urls, sh.ts.URL)
	}
	rt, _ := startRouter(t, urls)
	cl := client.New("http://fleet", &http.Client{Transport: rt.Transport()})
	ctx := context.Background()
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("Ready through the transport: %v", err)
	}

	// The keys go out concurrently: one client shares the transport.
	rg := rt.ring.Load()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := testReq(i)
			body, _ := json.Marshal(req)
			owner, _ := rg.Owner(rt.routePoint(body))
			resp, err := cl.Solve(ctx, req)
			if err != nil {
				t.Errorf("key %d: %v", i, err)
			} else if resp.ShardID != idOf[owner] {
				t.Errorf("key %d served by %q, want its ring owner %q", i, resp.ShardID, idOf[owner])
			}
		}(i)
	}
	wg.Wait()

	// Drain the owner of key 0 without the prober noticing: the request
	// fails over to the key's ring successor.
	req := testReq(0)
	body, _ := json.Marshal(req)
	succ := rg.Successors(rt.routePoint(body), 2)
	for _, sh := range shards {
		if sh.ts.URL == succ[0] {
			sh.draining.Store(true)
		}
	}
	resp, err := cl.Solve(ctx, req)
	if err != nil {
		t.Fatalf("solve with a draining owner: %v", err)
	}
	if resp.ShardID != idOf[succ[1]] {
		t.Fatalf("draining owner's key served by %q, want its successor %q", resp.ShardID, idOf[succ[1]])
	}

	items, err := cl.Batch(ctx, []server.SolveRequest{testReq(1), testReq(1)})
	if err != nil {
		t.Fatalf("batch through the transport: %v", err)
	}
	for i, it := range items {
		if it.Status != http.StatusOK || it.Result == nil {
			t.Fatalf("batch item %d: status %d error %q", i, it.Status, it.Error)
		}
	}
}

// TestRouterNormalizesShardAddresses pins that a bare host:port with a
// trailing slash names the same shard as its http:// URL does.
func TestRouterNormalizesShardAddresses(t *testing.T) {
	sh := startShard(t, "s0")
	rt, rts := startRouter(t, []string{strings.TrimPrefix(sh.ts.URL, "http://") + "/"})
	if got := rt.healthyCount(); got != 1 {
		t.Fatalf("healthy shards = %d, want 1", got)
	}
	resp, err := client.New(rts.URL, nil).Solve(context.Background(), testReq(0))
	if err != nil || resp.ShardID != "s0" {
		t.Fatalf("solve through a bare-address shard: %+v, %v", resp, err)
	}
}

// TestRouterEmptyRing pins the no-members behavior: 503 on /readyz and
// on solves, with the router.no_healthy_shard counter ticking.
func TestRouterEmptyRing(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	dead.Close() // configured but unreachable
	rt, rts := startRouter(t, []string{dead.URL})
	cl := client.New(rts.URL, nil)

	if err := cl.Ready(context.Background()); err == nil {
		t.Fatal("Ready succeeded with an empty ring")
	}
	_, err := cl.Solve(context.Background(), testReq(0))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503", err)
	}
	if rt.cfg.Obs.Reg.Counter("router.no_healthy_shard").Value() == 0 {
		t.Fatal("router.no_healthy_shard not incremented")
	}
	// The 503 is a JSON error body, like every other error the API returns.
	body, _ := json.Marshal(testReq(0))
	resp, err := http.Post(rts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb server.ErrorResponse
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("503 Content-Type = %q, want application/json", ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error != "no healthy shards" {
		t.Fatalf("503 body: %+v, %v", eb, err)
	}
}

// TestRouterServesCatalogLocally pins that registry-derived endpoints
// do not touch the fleet: the catalog answers even with zero shards.
func TestRouterServesCatalogLocally(t *testing.T) {
	_, rts := startRouter(t, nil)
	cl := client.New(rts.URL, nil)
	infos, err := cl.Solvers(context.Background())
	if err != nil {
		t.Fatalf("Solvers: %v", err)
	}
	if len(infos) == 0 {
		t.Fatal("empty catalog")
	}
	for _, in := range infos {
		if in.Name == "" {
			t.Fatalf("catalog entry with empty name: %+v", in)
		}
	}
}
