// Command metricsmoke is the end-to-end check behind `make
// metrics-smoke`: against a running rebalanced daemon it issues one
// traced solve and repeats it, requiring the repeat to be a cache hit
// served before admission (queue_ns 0), scrapes GET /metrics, and
// verifies the exposition parses as Prometheus text format and covers
// the serving families; it also checks /version and /debug/traces
// answer. Exit status 0 means the hit path and the whole observability
// surface are live.
//
// Usage:
//
//	rebalanced -addr localhost:8080 &
//	metricsmoke -addr localhost:8080
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("metricsmoke: ")
	addr := flag.String("addr", "localhost:8080", "rebalanced daemon address")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for the daemon to become ready")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		fmt.Println(rebalance.Version())
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *wait)
	defer cancel()
	cl := client.New(*addr, nil)
	// Poll readiness: the daemon is typically started moments before us
	// (make metrics-smoke backgrounds it), so one probe is not enough.
	for {
		err := cl.Ready(ctx)
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			log.Fatalf("daemon not ready at %s within %v: %v", *addr, *wait, err)
		case <-time.After(200 * time.Millisecond):
		}
	}

	// One traced solve so the serving metric families exist and a trace
	// lands in the ring (the adopted ID makes it findable).
	req := server.SolveRequest{Solver: "greedy", K: 2}
	req.Instance.Instance = *instance.MustNew(2,
		[]int64{5, 4, 3, 2}, nil, []int{0, 0, 0, 0})
	resp, err := cl.Solve(ctx, req)
	if err != nil {
		log.Fatalf("solve: %v", err)
	}
	if resp.RequestID == "" {
		log.Fatal("solve response carries no request_id")
	}
	fmt.Printf("solve ok: request %s timing queue=%dns cache=%dns solve=%dns\n",
		resp.RequestID, resp.Timing.QueueNS, resp.Timing.CacheNS, resp.Timing.SolveNS)
	// The same solve again is a cache hit, served before admission: it
	// must say so and report no queue wait.
	hit, err := cl.Solve(ctx, req)
	if err != nil {
		log.Fatalf("repeat solve: %v", err)
	}
	if hit.Cache != "hit" || hit.Timing.QueueNS != 0 || hit.Makespan != resp.Makespan {
		log.Fatalf("repeat solve answered cache %q, queue_ns %d, makespan %d; want a hit with queue_ns 0 and makespan %d",
			hit.Cache, hit.Timing.QueueNS, hit.Makespan, resp.Makespan)
	}
	fmt.Printf("repeat solve ok: cache hit, timing queue=%dns cache=%dns\n", hit.Timing.QueueNS, hit.Timing.CacheNS)

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	body := get(ctx, base+"/metrics")
	n, err := obs.ValidateExposition(bytes.NewReader(body))
	if err != nil {
		log.Fatalf("/metrics is not valid Prometheus exposition: %v", err)
	}
	for _, family := range []string{"server_requests", "server_queue_ns", "runtime_goroutines"} {
		if !strings.Contains(string(body), family) {
			log.Fatalf("/metrics missing family %s:\n%s", family, body)
		}
	}
	fmt.Printf("metrics ok: %d samples, exposition parses\n", n)

	vbody := get(ctx, base+"/version")
	if !bytes.Contains(vbody, []byte("version")) {
		log.Fatalf("/version unexpected body: %s", vbody)
	}
	tbody := get(ctx, base+"/debug/traces")
	if !bytes.Contains(tbody, []byte("traces")) {
		log.Fatalf("/debug/traces unexpected body: %s", tbody)
	}
	fmt.Println("version + traces endpoints ok")
}

func get(ctx context.Context, url string) []byte {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}
