// Command rebalanced is the load rebalancing daemon: a long-running
// HTTP service exposing every solver in the internal/engine registry
// over a JSON API (see DESIGN.md §9 and the README's "Running as a
// service" section).
//
// Usage:
//
//	rebalanced -addr localhost:8080
//	rebalanced -addr :8080 -pool 4 -queue 128 -timeout 10s -drain 30s
//	rebalanced -addr :8080 -debug-addr localhost:6060   # expvar + pprof
//
// Endpoints:
//
//	POST /v1/solve   {"solver":"mpartition","k":10,"instance":{...}}
//	POST /v1/batch   {"requests":[{...},{...}]} — per-item results
//	GET  /v1/solvers solver catalog (names, flags, bounds)
//	GET  /healthz    liveness
//	GET  /readyz     readiness (503 while draining)
//	GET  /metrics    Prometheus text exposition (+ runtime gauges)
//	GET  /debug/traces  ring of sampled/slow request traces
//	GET  /version    build-info stamp
//
// Tracing: every request is assigned (or adopts) an X-Request-ID and
// records a span tree — queue wait, cache, engine solve. -trace-sample
// of them (plus everything over -slow-threshold) land in a -trace-ring
// buffer served at /debug/traces; -trace appends the same spans as
// JSONL to a file. Requests over -slow-threshold also produce one
// structured log line with the per-phase breakdown.
//
// Caching: solution-kind solves are memoized in a canonical-form LRU
// with single-flight coalescing (-cache entries; -cache -1 disables).
// Hit/miss/coalesce counters appear under cache.* in expvar.
//
// Admission control: at most -pool solves run at once, each on its
// request's goroutine, and at most -queue more wait for a slot; beyond
// that the daemon answers 429 with Retry-After instead of melting down. Every request runs under a deadline (its timeout_ms,
// clamped to -max-timeout, else -timeout) that cancels the solver
// mid-search on expiry (504).
//
// Fleet mode: -shard-id stamps responses, and -peer-fill lists the
// fleet's shard URLs; a miss whose X-Peer-Fill header names one of them
// is first peeked from that shard's cache (any other name is ignored).
//
// Shutdown: SIGINT/SIGTERM begins a graceful drain — the listener stops
// accepting, readyz flips to 503, waiting and running solves finish,
// and after -drain the stragglers are cancelled.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rebalanced: ")
	addr := flag.String("addr", "localhost:8080", "serve the solve API on this address")
	pool := flag.Int("pool", runtime.GOMAXPROCS(0), "solve slots: concurrent solves (<=0: GOMAXPROCS)")
	queue := flag.Int("queue", server.DefaultQueueDepth, "admission queue depth: solves waiting for a slot; beyond it requests get 429")
	timeout := flag.Duration("timeout", server.DefaultTimeout, "default per-request deadline (queue wait + solve)")
	maxTimeout := flag.Duration("max-timeout", server.DefaultMaxTimeout, "clamp on request-supplied timeout_ms")
	cacheEntries := flag.Int("cache", server.DefaultCacheEntries, "solution cache LRU entries (0: default, negative: disable caching)")
	cacheBytes := flag.Int64("cache-bytes", server.DefaultCacheBytes, "solution cache LRU memory bound in bytes; evicts on this or -cache, whichever binds first (<=0: default)")
	maxBatch := flag.Int("max-batch", server.DefaultMaxBatch, "max requests per /v1/batch call")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "max live rebalancing sessions; beyond it creates get 429")
	sessionTTL := flag.Duration("session-ttl", server.DefaultSessionTTL, "idle lifetime of a rebalancing session before eviction")
	shardID := flag.String("shard-id", "", "fleet identity stamped into every solve response (empty: standalone)")
	peerFill := flag.String("peer-fill", "", "comma-separated fleet shard base URLs: on a local miss, warm the cache from the X-Peer-Fill peer if it is one of them (empty: peer fill off)")
	peerTimeout := flag.Duration("peer-timeout", 2*time.Second, "bound on one peer cache-fill peek")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown grace before in-flight solves are cancelled")
	debugAddr := flag.String("debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address")
	metrics := flag.Bool("metrics", false, "print the end-of-run metrics summary to stderr at exit")
	traceSample := flag.Float64("trace-sample", 0.01, "fraction of request traces kept in /debug/traces (0 keeps only slow ones, 1 keeps all)")
	slowThreshold := flag.Duration("slow-threshold", 500*time.Millisecond, "log a structured slow-request line and always keep the trace at this latency (0 disables)")
	traceRing := flag.Int("trace-ring", obs.DefaultTraceRing, "recent kept traces retained for /debug/traces")
	traceFile := flag.String("trace", "", "append kept traces as JSONL span events to this file")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		fmt.Println(rebalance.Version())
		return
	}

	sink := obs.New()
	obs.PublishExpvar("rebalance", sink)
	obs.PublishVersion("rebalance_version", rebalance.Version())
	rc := obs.StartRuntimeCollector(sink, obs.DefaultRuntimeInterval)
	defer rc.Stop()
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	spanCfg := obs.SpanConfig{
		SampleRate:    *traceSample,
		SlowThreshold: *slowThreshold,
		RingSize:      *traceRing,
		Obs:           sink,
	}
	var flushTrace func()
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("trace file: %v", err)
		}
		w := bufio.NewWriter(f)
		jt := obs.NewJSONL(w)
		jt.Clock = time.Now
		spanCfg.Tracer = jt
		// Flushed after the drain completes, so every span of every
		// in-flight request reaches the file before exit.
		flushTrace = func() {
			if err := jt.Err(); err != nil {
				log.Printf("trace: %v", err)
			}
			if err := w.Flush(); err != nil {
				log.Printf("trace flush: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("trace close: %v", err)
			}
		}
	}
	tracer := obs.NewSpanTracer(spanCfg)

	var fill server.FillFunc
	if peers := server.BaseURLs(*peerFill); len(peers) > 0 {
		fill = client.PeerFill(nil, *peerTimeout, peers)
	}
	srv := server.New(server.Config{
		Workers:        *pool,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		MaxBatch:       *maxBatch,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
		ShardID:        *shardID,
		PeerFill:       fill,
		Obs:            sink,
		Trace:          tracer,
		SlowThreshold:  *slowThreshold,
		PreScrape:      rc.Sample,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGINT/SIGTERM flows through the same ctx plumbing the solvers
	// honor: the first signal starts the drain; a second one kills the
	// process the default way (NotifyContext unregisters on cancel).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("%s serving on http://%s (pool=%d queue=%d timeout=%v)",
		rebalance.Version(), *addr, *pool, *queue, *timeout)

	select {
	case err := <-errCh:
		log.Fatal(err) // listener died before any signal
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received; draining (grace %v)", *drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Shutdown(drainCtx) }()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := <-drainErr; err != nil {
		log.Printf("drain timeout: cancelled in-flight solves (%v)", err)
	} else {
		log.Printf("drained cleanly")
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	rc.Stop()
	if flushTrace != nil {
		flushTrace()
	}
	if *metrics {
		snap := sink.Snapshot()
		snap.Version = rebalance.Version()
		if err := snap.WriteSummary(os.Stderr); err != nil {
			log.Printf("metrics: %v", err)
		}
	}
}
