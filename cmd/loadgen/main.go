// Command loadgen replays a synthetic workload stream against a running
// rebalanced daemon and reports throughput and latency percentiles —
// the measurement half of the serving layer (DESIGN.md §9).
//
// Usage:
//
//	rebalanced -addr localhost:8080 &
//	loadgen -addr localhost:8080 -alg mpartition -k 10 -n 500 -c 16
//	loadgen -addr localhost:8080 -alg ptas -budget 500 -n 100 -c 4 -timeout 2s
//
// It generates instances with internal/workload (same knobs as
// genwork: -jobs, -m, -max, -sizes, -place, -costs, -seed) — a distinct
// instance per request by default, or a cycling working set of
// -instances — issued across -n requests by -c concurrent senders.
// Generation is lazy and deterministic (instance i is seeded by
// seed+i), so memory stays flat no matter how large -n is while
// repeated indices still produce byte-identical instances. -dup sets the
// fraction of requests that re-send the first instance (a hot key),
// exercising the daemon's solution cache; the report includes the
// observed hit rate from the responses' "cache" field and a per-phase
// latency breakdown (queue / cache / solve percentiles) from their
// "timing" field. 429 (queue full) and 504 (deadline) responses are
// counted, not retried, so the report shows how the daemon's admission
// control behaved under the offered load. Ctrl-C stops the run early
// and prints the report for the requests already issued.
//
// Workload shape: -zipf s draws each request's instance index from a
// Zipf(s) popularity law over a -keys working set — the canonical-key
// population model the fleet simulator (internal/des) uses, produced by
// the same workload.ZipfSequence, so a simulated scenario and a real
// burst replay the *identical* key sequence, not merely the same
// distribution (cmd/simvalidate depends on this). -rate paces requests
// as an open arrival process (-arrival poisson|gamma, -cv for Gamma
// burstiness) instead of the closed-loop as-fast-as-possible default;
// pacing uses workload.ArrivalTimes, again shared with the simulator.
//
// Fleet mode: -fleet takes a comma-separated shard list and routes
// in-process instead of through -addr: loadgen builds a router over the
// shards (internal/router, the code rebalrouter serves) and sends every
// request through the router's Transport, so it lands on its owning
// shard with the router's own placement, failover and membership but
// without the router hop. The report adds a per-shard breakdown of
// requests and cache hit rates, keyed by each response's shard_id (run
// the shards with -shard-id). Because duplicate requests collide on one
// shard's cache, the aggregate hit rate in fleet mode should match the
// single-daemon rate for the same -dup, which is exactly what sharding
// by canonical key buys.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	addr := flag.String("addr", "localhost:8080", "rebalanced daemon address")
	fleet := flag.String("fleet", "", "comma-separated shard addresses; route by consistent hash instead of -addr")
	alg := flag.String("alg", "mpartition", "solver to request")
	k := flag.Int("k", 10, "move budget (k-capable solvers)")
	budget := flag.Int64("budget", 0, "relocation cost budget (budget-capable solvers)")
	eps := flag.Float64("eps", 0, "approximation parameter (0: solver default)")
	n := flag.Int("n", 200, "total requests to issue")
	c := flag.Int("c", 8, "concurrent senders")
	timeout := flag.Duration("timeout", 0, "per-request deadline sent as timeout_ms (0: server default)")
	instances := flag.Int("instances", 0, "distinct instances to pre-generate and cycle through (0: one per request)")
	dup := flag.Float64("dup", 0, "fraction of requests [0,1] that re-send the first instance (cache hot key)")
	jobs := flag.Int("jobs", 200, "jobs per generated instance")
	m := flag.Int("m", 8, "processors per generated instance")
	maxSize := flag.Int64("max", 1000, "maximum job size")
	sizes := flag.String("sizes", "zipf", "size distribution: uniform|zipf|bimodal|equal")
	place := flag.String("place", "skewed", "initial placement: random|skewed|balanced|onehot")
	costs := flag.String("costs", "unit", "cost model: unit|proportional|anticorrelated|random")
	seed := flag.Uint64("seed", 1, "base RNG seed; instance i uses seed+i")
	zipfS := flag.Float64("zipf", -1, "Zipf popularity exponent over a -keys working set (<0: disabled; overrides -dup and -instances)")
	keys := flag.Int("keys", 1024, "distinct instance population for -zipf")
	arrival := flag.String("arrival", "poisson", "arrival process when -rate is set: poisson|gamma")
	rate := flag.Float64("rate", 0, "offered load in req/s as paced open arrivals (0: closed loop, as fast as -c allows)")
	cv := flag.Float64("cv", 1, "interarrival coefficient of variation for -arrival gamma")
	sessions := flag.Int("sessions", 0, "session mode: open this many live rebalancing sessions and stream deltas at them instead of stateless solves")
	coldEvery := flag.Int("cold-every", 25, "session mode: also cold-solve the mirrored instance every this many deltas as the baseline (0: no baseline)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		fmt.Println(rebalance.Version())
		return
	}

	if *sessions > 0 {
		// Session mode: -n is the total delta count, split evenly across
		// sessions; -rate (when set) is likewise the aggregate offered
		// delta rate. Sessions are stateful and pinned to one daemon, so
		// fleet routing does not apply.
		if *fleet != "" {
			log.Fatal("-sessions and -fleet are mutually exclusive: sessions are pinned to one daemon")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		cl := client.New(*addr, nil)
		if err := cl.Ready(ctx); err != nil {
			log.Fatalf("daemon not ready at %s: %v", *addr, err)
		}
		perSession := *n / *sessions
		if perSession < 1 {
			perSession = 1
		}
		runSessions(ctx, cl, sessionOpts{
			sessions:  *sessions,
			deltas:    perSession,
			workers:   *c,
			m:         *m,
			k:         *k,
			maxSize:   *maxSize,
			seed:      *seed,
			coldEvery: *coldEvery,
			rate:      *rate,
			arrival:   *arrival,
			cv:        *cv,
			timeout:   *timeout,
		})
		return
	}

	cfg := workload.Config{N: *jobs, M: *m, MaxSize: *maxSize}
	var err error
	if cfg.Sizes, err = workload.ParseSizeDist(*sizes); err != nil {
		log.Fatal(err)
	}
	if cfg.Placement, err = workload.ParsePlacement(*place); err != nil {
		log.Fatal(err)
	}
	if cfg.Costs, err = workload.ParseCostModel(*costs); err != nil {
		log.Fatal(err)
	}
	// Default: a distinct instance per request, so the daemon's cache
	// hit rate is controlled by -dup alone. A small -instances value
	// instead simulates a hot working set cycling through the cache.
	if *instances < 1 {
		*instances = *n
	}
	// Ship only the tuning parameters the solver consumes, so flag
	// defaults (-k 10) don't trip the server's parameter validation on
	// budget- or eps-only solvers.
	spec, known := engine.Lookup(*alg)
	if !known {
		log.Fatalf("unknown solver %q", *alg)
	}
	tmpl := server.SolveRequest{
		Solver:    *alg,
		TimeoutMS: int64(*timeout / time.Millisecond),
	}
	if spec.Caps.K {
		tmpl.K = *k
	}
	if spec.Caps.Budget {
		tmpl.Budget = *budget
	}
	if spec.Caps.Eps {
		tmpl.Eps = *eps
	}
	// Instances are generated lazily, one per request, rather than
	// pre-materialized: with the distinct-per-request default a large -n
	// would otherwise hold every instance in memory at once. Seeding by
	// index keeps generation deterministic, so two requests with the
	// same index (the -dup hot key, or a cycling -instances working set)
	// still send byte-identical instances and collide in the daemon's
	// cache. Generation happens before the latency clock starts.
	genReq := func(idx int) server.SolveRequest {
		wcfg := cfg
		wcfg.Seed = *seed + uint64(idx)
		req := tmpl
		req.Instance.Instance = *workload.Generate(wcfg)
		return req
	}

	// The Zipf key schedule and the arrival schedule are materialized up
	// front from the base seed: they are exactly the sequences an
	// internal/des scenario with the same knobs consumes.
	var zipfSeq []int
	if *zipfS >= 0 {
		zipfSeq = workload.ZipfSequence(*seed, *zipfS, *keys, *n)
	}
	var arrivals []int64
	if *rate > 0 {
		dist, err := workload.ParseArrivalDist(*arrival)
		if err != nil {
			log.Fatal(err)
		}
		arrivals = workload.ArrivalTimes(*seed, workload.Interarrival{Dist: dist, Rate: *rate, CV: *cv}, *n)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Fleet mode routes in-process: the client's transport is a router
	// over the shards, so each request reaches its owning shard without
	// a router hop.
	cl := client.New(*addr, nil)
	target := *addr
	if *fleet != "" {
		var shards []string
		for _, s := range strings.Split(*fleet, ",") {
			if s = strings.TrimSpace(s); s != "" {
				shards = append(shards, s)
			}
		}
		rt := router.New(router.Config{Shards: shards})
		rt.ProbeNow(ctx)
		defer rt.Close()
		cl = client.New("http://fleet", &http.Client{Transport: rt.Transport()})
		target = "fleet [" + *fleet + "]"
	}
	if err := cl.Ready(ctx); err != nil {
		log.Fatalf("%s not ready: %v", target, err)
	}

	// Bracket the run with /metrics scrapes: the daemon refreshes its
	// runtime gauges on scrape, so the deltas below are the server-side
	// allocation and GC cost of exactly this load. Absent gauges (daemon
	// running without a sink) just suppress the report. Fleet mode skips
	// it — the per-shard breakdown is the fleet report.
	var before map[string]int64
	if *fleet == "" {
		var err error
		before, err = cl.Scalars(ctx)
		if err != nil {
			log.Printf("metrics scrape failed (runtime report disabled): %v", err)
		}
	}

	// Latency accounting rides the same histogram the daemon's own
	// metrics use; its p50/p90/p99 are nearest-rank.
	lat := &obs.Histogram{}
	// Per-phase breakdown from the responses' timing field: where the
	// server spent each request (admission wait, cache layer, engine).
	queueLat := &obs.Histogram{}
	cacheLat := &obs.Histogram{}
	solveLat := &obs.Histogram{}
	var ok, rejected, deadline, failed atomic.Int64
	var hits, misses, coalesced atomic.Int64
	// Per-shard tallies (fleet mode report). Keyed by the shard_id of
	// the response — the shard that served the request, not the ring's
	// prediction, so failover shows up as traffic on the successor.
	type shardStat struct{ ok, hits, misses, coalesced int64 }
	shardStats := make(map[string]*shardStat)
	var shardMu sync.Mutex
	tally := func(shard string, resp *server.SolveResponse) {
		shardMu.Lock()
		defer shardMu.Unlock()
		st := shardStats[shard]
		if st == nil {
			st = &shardStat{}
			shardStats[shard] = st
		}
		st.ok++
		switch resp.Cache {
		case "hit":
			st.hits++
		case "miss":
			st.misses++
		case "coalesced":
			st.coalesced++
		}
	}
	if *dup < 0 {
		*dup = 0
	}
	if *dup > 1 {
		*dup = 1
	}
	start := time.Now()
	_ = par.Do(ctx, *n, *c, func(i int) error {
		idx := i % *instances
		// Deterministic duplicate schedule: request i is a hot-key repeat
		// when the running total floor(i·dup) ticks up at i, which spreads
		// repeats evenly and realizes the -dup fraction at any -n without
		// an RNG. Request 0 always seeds the cache with the hot key.
		if i > 0 && int64(float64(i)**dup) > int64(float64(i-1)**dup) {
			idx = 0
		}
		if zipfSeq != nil {
			idx = zipfSeq[i]
		}
		if arrivals != nil {
			// Open-arrival pacing: hold request i until its scheduled
			// offset. With all -c senders busy the arrival is late — that
			// is queueing at the generator and means -c is the bottleneck,
			// not the daemon.
			if d := time.Until(start.Add(time.Duration(arrivals[i]))); d > 0 {
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(d):
				}
			}
		}
		req := genReq(idx)
		t0 := time.Now()
		resp, err := cl.Solve(ctx, req)
		lat.Observe(time.Since(t0).Nanoseconds())
		var ae *client.APIError
		switch {
		case err == nil:
			ok.Add(1)
			queueLat.Observe(resp.Timing.QueueNS)
			cacheLat.Observe(resp.Timing.CacheNS)
			solveLat.Observe(resp.Timing.SolveNS)
			switch resp.Cache {
			case "hit":
				hits.Add(1)
			case "miss":
				misses.Add(1)
			case "coalesced":
				coalesced.Add(1)
			}
			tally(resp.ShardID, resp)
		case errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests:
			rejected.Add(1)
		case errors.As(err, &ae) && ae.StatusCode == http.StatusGatewayTimeout:
			deadline.Add(1)
		case errors.Is(err, context.Canceled):
			// Ctrl-C mid-request; the par loop stops scheduling next.
		default:
			failed.Add(1)
			log.Printf("request %d: %v", i, err)
		}
		return nil // errors are tallied, not fatal: keep offering load
	})
	elapsed := time.Since(start)

	issued := lat.Count()
	fmt.Printf("loadgen: %s against %s\n", *alg, target)
	fmt.Printf("requests:   %d issued / %d requested (concurrency %d)\n", issued, *n, *c)
	fmt.Printf("outcomes:   %d ok, %d rejected (429), %d deadline (504), %d failed\n",
		ok.Load(), rejected.Load(), deadline.Load(), failed.Load())
	fmt.Printf("elapsed:    %v (%.1f req/s)\n", elapsed.Round(time.Millisecond),
		float64(issued)/elapsed.Seconds())
	if issued > 0 {
		fmt.Printf("latency:    p50=%v p90=%v p99=%v max=%v%s\n",
			time.Duration(lat.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(lat.Quantile(0.90)).Round(time.Microsecond),
			time.Duration(lat.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(lat.Max()).Round(time.Microsecond), estimated(lat))
	}
	if queueLat.Count() > 0 {
		phase := func(name string, h *obs.Histogram) {
			fmt.Printf("  %-9s p50=%v p90=%v p99=%v%s\n", name+":",
				time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.90)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.99)).Round(time.Microsecond), estimated(h))
		}
		fmt.Printf("phases (server-side, from response timing):\n")
		phase("queue", queueLat)
		phase("cache", cacheLat)
		phase("solve", solveLat)
	}
	if h, ms, co := hits.Load(), misses.Load(), coalesced.Load(); h+ms+co > 0 {
		fmt.Printf("cache:      %d hit, %d miss, %d coalesced (hit rate %.1f%%)\n",
			h, ms, co, 100*float64(h+co)/float64(h+ms+co))
	}
	if *fleet != "" && len(shardStats) > 0 {
		fmt.Printf("shards (consistent-hash placement, per-shard cache):\n")
		names := make([]string, 0, len(shardStats))
		for s := range shardStats {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			st := shardStats[s]
			rate := 0.0
			if t := st.hits + st.misses + st.coalesced; t > 0 {
				rate = 100 * float64(st.hits+st.coalesced) / float64(t)
			}
			if s == "" {
				s = "(no shard_id)"
			}
			fmt.Printf("  %-28s %5d ok  %5d hit %5d miss %5d coalesced (hit rate %.1f%%)\n",
				s, st.ok, st.hits, st.misses, st.coalesced, rate)
		}
	}
	if r := rejected.Load(); r > 0 {
		fmt.Printf("note:       %d rejections mean the offered load exceeded pool+queue capacity\n", r)
	}
	if before != nil {
		if after, err := cl.Scalars(ctx); err != nil {
			log.Printf("final metrics scrape failed: %v", err)
		} else {
			printRuntimeDelta(before, after, elapsed)
		}
	}
}

// printRuntimeDelta reports the server-side allocation and GC cost of
// the run from the daemon's runtime gauges (docs/metrics.md): heap
// objects allocated per second of wall clock and the stop-the-world
// pause total accumulated while the load ran.
// estimated marks a histogram's quantiles as reservoir estimates once
// it has observed more samples than its reservoir retains; the empty
// string while they are exact nearest-rank values.
func estimated(h *obs.Histogram) string {
	if retained, count := h.Retained(), h.Count(); retained < count {
		return fmt.Sprintf(" (reservoir estimate over %d/%d samples)", retained, count)
	}
	return ""
}

func printRuntimeDelta(before, after map[string]int64, elapsed time.Duration) {
	mallocs, ok1 := delta(before, after, "runtime_mallocs")
	pause, ok2 := delta(before, after, "runtime_gc_pause_total_ns")
	cycles, ok3 := delta(before, after, "runtime_gc_count")
	if !ok1 && !ok2 {
		return // daemon runs without runtime telemetry
	}
	fmt.Printf("server runtime (from /metrics deltas):\n")
	if ok1 {
		fmt.Printf("  allocs:    %d (%.0f/s)\n", mallocs, float64(mallocs)/elapsed.Seconds())
	}
	if ok2 && ok3 {
		fmt.Printf("  gc:        %d cycles, %v total pause\n",
			cycles, time.Duration(pause).Round(time.Microsecond))
	}
}

func delta(before, after map[string]int64, name string) (int64, bool) {
	b, okB := before[name]
	a, okA := after[name]
	return a - b, okA && okB
}
