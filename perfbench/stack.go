package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
)

// Daemon settings mirrored from cmd/rebalanced's flag defaults. The
// benchmark builds its shards with exactly these so the measured stack
// is the one a default deployment runs.
const (
	traceSample   = 0.01
	slowThreshold = 500 * time.Millisecond
)

// daemonSettings is the environment-header record of the mirrored
// cmd/rebalanced and cmd/rebalrouter defaults.
func daemonSettings() map[string]any {
	return map[string]any{
		"pool":                 runtime.GOMAXPROCS(0),
		"solver_workers":       1,
		"queue":                server.DefaultQueueDepth,
		"timeout":              server.DefaultTimeout.String(),
		"max_timeout":          server.DefaultMaxTimeout.String(),
		"cache_entries":        server.DefaultCacheEntries,
		"max_batch":            server.DefaultMaxBatch,
		"max_sessions":         server.DefaultMaxSessions,
		"session_ttl":          server.DefaultSessionTTL.String(),
		"trace_sample":         traceSample,
		"slow_threshold":       slowThreshold.String(),
		"trace_ring":           obs.DefaultTraceRing,
		"runtime_interval":     obs.DefaultRuntimeInterval.String(),
		"router_probe":         router.DefaultProbeInterval.String(),
		"router_probe_timeout": router.DefaultProbeTimeout.String(),
		"router_fill_window":   router.DefaultFillWindow.String(),
	}
}

// shard is one in-process rebalanced daemon behind a loopback listener.
type shard struct {
	srv  *server.Server
	rc   *obs.RuntimeCollector
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

// stack is the serving stack one workload runs against: one or more
// shards and, for fleet workloads, the router in front of them.
type stack struct {
	shards []*shard
	rt     *router.Router
	rtHS   *http.Server
	rtDone chan struct{}
	// entry is the base URL the generator sends to: the router when
	// there is one, else the only shard.
	entry string
}

// serve starts h on a fresh loopback listener.
func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

func startShard(spans *spanLog) (*shard, error) {
	sink := obs.New()
	rc := obs.StartRuntimeCollector(sink, obs.DefaultRuntimeInterval)
	tracer := obs.NewSpanTracer(obs.SpanConfig{
		SampleRate:    traceSample,
		SlowThreshold: slowThreshold,
		RingSize:      obs.DefaultTraceRing,
		Obs:           sink,
	})
	srv := server.New(server.Config{
		Workers:        runtime.GOMAXPROCS(0),
		SolverWorkers:  1,
		QueueDepth:     server.DefaultQueueDepth,
		DefaultTimeout: server.DefaultTimeout,
		MaxTimeout:     server.DefaultMaxTimeout,
		CacheEntries:   server.DefaultCacheEntries,
		MaxBatch:       server.DefaultMaxBatch,
		MaxSessions:    server.DefaultMaxSessions,
		SessionTTL:     server.DefaultSessionTTL,
		Obs:            sink,
		Trace:          tracer,
		SlowThreshold:  slowThreshold,
		PreScrape:      rc.Sample,
	})
	hs, url, done, err := serve(spans.wrap("shard", srv.Handler()))
	if err != nil {
		srv.Close()
		rc.Stop()
		return nil, err
	}
	return &shard{srv: srv, rc: rc, hs: hs, url: url, done: done}, nil
}

// startStack builds nShards shards, waits until each answers /readyz,
// and, when withRouter is set, puts a router in front and runs its
// first probe. spans may be nil (untraced run).
func startStack(ctx context.Context, hc *http.Client, nShards int, withRouter bool, spans *spanLog) (*stack, error) {
	st := &stack{}
	for i := 0; i < nShards; i++ {
		sh, err := startShard(spans)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.shards = append(st.shards, sh)
		if err := ready(ctx, hc, sh.url); err != nil {
			st.stop()
			return nil, err
		}
	}
	st.entry = st.shards[0].url
	if !withRouter {
		return st, nil
	}
	urls := make([]string, len(st.shards))
	for i, sh := range st.shards {
		urls[i] = sh.url
	}
	st.rt = router.New(router.Config{Shards: urls, Obs: obs.New()})
	pctx, cancel := context.WithTimeout(ctx, router.DefaultProbeInterval)
	st.rt.ProbeNow(pctx)
	cancel()
	hs, url, done, err := serve(spans.wrap("router", st.rt.Handler()))
	if err != nil {
		st.stop()
		return nil, err
	}
	st.rtHS, st.rtDone, st.entry = hs, done, url
	if err := ready(ctx, hc, url); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// ready polls base/readyz until it answers 200.
func ready(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _, err := get(ctx, hc, base+"/readyz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: status %d, %v", base, status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// get issues one GET and returns the status and body.
func get(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// stop drains the router and every shard and waits for their serve
// loops and background collectors to exit.
func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.rtHS != nil {
		_ = st.rtHS.Shutdown(ctx)
		<-st.rtDone
	}
	if st.rt != nil {
		st.rt.Close()
	}
	for _, sh := range st.shards {
		_ = sh.hs.Shutdown(ctx)
		<-sh.done
		_ = sh.srv.Shutdown(ctx)
		sh.rc.Stop()
	}
	// The router proxies through http.DefaultClient; drop its pooled
	// connections to the stopped shards.
	http.DefaultClient.CloseIdleConnections()
}

// scalars scrapes base/metrics into the unlabeled samples, keyed by
// their Prometheus names (cache_hits, server_rejected_full, ...).
func scalars(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	status, body, err := get(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, status)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(rest, &v); err == nil {
			vals[name] = v
		}
	}
	return vals, nil
}

// counters sums the named counters over the stack's shards (and the
// router, whose counters carry distinct names).
func (st *stack) counters(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	sum := map[string]float64{}
	bases := make([]string, 0, len(st.shards)+1)
	for _, sh := range st.shards {
		bases = append(bases, sh.url)
	}
	if st.rtHS != nil {
		bases = append(bases, st.entry)
	}
	for _, b := range bases {
		vals, err := scalars(ctx, hc, b)
		if err != nil {
			return nil, err
		}
		for k, v := range vals {
			sum[k] += v
		}
	}
	return sum, nil
}

// spanRec is one layer span the benchmark records around a handler.
type spanRec struct {
	rid        string
	layer      string
	start, end time.Time
}

// spanLog keeps the traced run's handler spans in memory; they are
// written out when the run ends. A nil *spanLog records nothing and
// wraps nothing.
type spanLog struct {
	mu    sync.Mutex
	spans []spanRec
}

// tracedPrefix marks the request IDs whose spans are recorded.
const tracedPrefix = "t-"

// wrap records a span named layer around h for every traced request.
func (l *spanLog) wrap(layer string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if !strings.HasPrefix(rid, tracedPrefix) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		l.mu.Lock()
		l.spans = append(l.spans, spanRec{rid: rid, layer: layer, start: start, end: end})
		l.mu.Unlock()
	})
}

// byRequest indexes the recorded spans as rid → layer → duration.
func (l *spanLog) byRequest() map[string]map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]map[string]time.Duration, len(l.spans))
	for _, s := range l.spans {
		m := out[s.rid]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.rid] = m
		}
		m[s.layer] = s.end.Sub(s.start)
	}
	return out
}

var errNoSpans = errors.New("traced run recorded no spans")

// spanDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in (its build directory).
const spanDir = ".bench_build/spans"

// writeSpans writes the recorded spans as JSONL, one span per line:
// the request ID shared by a request's spans, the layer, its parent
// layer, and start and end in Unix nanoseconds.
func writeSpans(l *spanLog, workload string, seed uint64) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	routed := map[string]bool{}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.layer == "router" {
			routed[s.rid] = true
		}
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		parent := "client"
		if s.layer == "shard" && routed[s.rid] {
			parent = "router"
		}
		fmt.Fprintf(w, `{"trace":%q,"span":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.rid, s.layer, parent, s.start.UnixNano(), s.end.UnixNano())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
