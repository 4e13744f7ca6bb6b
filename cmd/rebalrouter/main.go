// Command rebalrouter is the fleet routing tier: a stateless HTTP
// proxy that spreads rebalanced traffic over a set of shard daemons
// with a consistent-hash ring keyed on the canonical cache key, so
// every canonical request — including permuted duplicates — is served
// by exactly one shard and the fleet's aggregate cache holds each
// solution once (see DESIGN.md §13 and the README's "Running a fleet"
// section).
//
// Usage:
//
//	rebalrouter -addr :8080 -shards http://10.0.0.1:8081,http://10.0.0.2:8081
//	rebalrouter -addr :8080 -shards ... -probe-interval 1s -fill-window 2m
//
// Endpoints mirror the daemon's API: POST /v1/solve, /v1/batch and
// /v1/peek proxy to the owning shard (with failover to the key's ring
// successors on 503 or transport errors); GET /v1/solvers and /version
// are served locally; /healthz, /readyz and /metrics expose the
// router's own state, including router.* counters.
//
// Membership is health-driven: every -probe-interval the router polls
// each shard's /readyz and rebuilds the ring from the healthy subset.
// A shard that drains or dies leaves the ring — only its keys move,
// each to its ring successor — and a shard that (re)joins gets its
// keys back, warming its cache from each key's previous owner via the
// peer-fill protocol for -fill-window after the transition.
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
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rebalrouter: ")
	addr := flag.String("addr", "localhost:8080", "serve the routing API on this address")
	shards := flag.String("shards", "", "comma-separated shard base URLs (required)")
	probeInterval := flag.Duration("probe-interval", router.DefaultProbeInterval, "health-probe period for shard /readyz")
	probeTimeout := flag.Duration("probe-timeout", router.DefaultProbeTimeout, "timeout for one health probe")
	fillWindow := flag.Duration("fill-window", router.DefaultFillWindow, "how long after a shard joins its requests carry peer cache-fill hints")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0: default)")
	maxBatch := flag.Int("max-batch", router.DefaultMaxBatch, "max requests per /v1/batch call")
	metrics := flag.Bool("metrics", false, "print the end-of-run metrics summary to stderr at exit")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		fmt.Println(rebalance.Version())
		return
	}
	var urls []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, s)
		}
	}
	if len(urls) == 0 {
		log.Fatal("no shards: pass -shards with at least one base URL")
	}

	sink := obs.New()
	obs.PublishExpvar("rebalrouter", sink)
	rt := router.New(router.Config{
		Shards:        urls,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FillWindow:    *fillWindow,
		VNodes:        *vnodes,
		MaxBatch:      *maxBatch,
		Obs:           sink,
	})
	defer rt.Close()

	// Prime the ring before listening so startup doesn't answer 503
	// until the first probe tick.
	probeCtx, cancelProbe := context.WithTimeout(context.Background(), *probeInterval)
	rt.ProbeNow(probeCtx)
	cancelProbe()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("%s routing on http://%s over %d shards (probe %v)",
		rebalance.Version(), *addr, len(urls), *probeInterval)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received; shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	rt.Close()
	if *metrics {
		snap := sink.Snapshot()
		snap.Version = rebalance.Version()
		if err := snap.WriteSummary(os.Stderr); err != nil {
			log.Printf("metrics: %v", err)
		}
	}
}
