// Package client is the typed Go client for the rebalanced HTTP API
// (internal/server). It is used by `cmd/rebalance -remote`, by the load
// generator, by shard daemons for peer cache fill, and by the end-to-end
// tests; the request/response types are the server's own wire structs,
// so the two cannot drift apart. A Client talks to one daemon or one
// router; to route over a shard fleet without a router process, give it
// an http.Client whose Transport is a router.Router's Transport.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/server"
)

// APIError is a non-2xx response decoded from the server's error body.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error string.
	Message string
	// RetryAfter is the parsed Retry-After hint on 429 responses, zero
	// when absent.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("rebalanced: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// Client talks to one rebalanced daemon.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the daemon at base (e.g.
// "http://localhost:8080"; a bare host:port is promoted to http://).
// httpClient may be nil for http.DefaultClient; per-request deadlines
// come from the contexts (and the timeout_ms request field), so the
// default client's lack of a global timeout is fine.
func New(base string, httpClient *http.Client) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}
}

// do issues one request and decodes the response into out, converting
// non-2xx statuses into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		ae := &APIError{StatusCode: resp.StatusCode}
		var eb server.ErrorResponse
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&eb); derr == nil {
			ae.Message = eb.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return ae
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// Solve round-trips one solve request.
func (c *Client) Solve(ctx context.Context, req server.SolveRequest) (*server.SolveResponse, error) {
	var resp server.SolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/solve", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Peek probes the daemon's solution cache through POST /v1/peek
// without solving anything: a hit returns the cached response, a miss
// returns an *APIError with status 404 (and a cached infeasibility
// 422). The fleet's peer cache-fill protocol is built on it.
func (c *Client) Peek(ctx context.Context, req server.SolveRequest) (*server.SolveResponse, error) {
	var resp server.SolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/peek", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PeerFill builds the dispatch-core fill hook a shard daemon uses to
// warm its cache from a key's previous owner: a POST /v1/peek against
// the peer URL the router supplied in X-Peer-Fill. Any error — peer
// down, cache miss (404), cached infeasibility (422) — reports a miss
// and the shard computes locally; peer fill is an optimization, never
// a dependency. timeout bounds the peek on top of the solve's own
// context (0 means the solve context alone).
func PeerFill(httpClient *http.Client, timeout time.Duration) server.FillFunc {
	return func(ctx context.Context, peer, solver string, ext *instance.Extended, p engine.Params) (instance.Solution, bool) {
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		resp, err := New(peer, httpClient).Peek(ctx, server.SolveRequest{
			Solver: solver, Instance: *ext, K: p.K, Budget: p.Budget, Eps: p.Eps,
		})
		if err != nil {
			return instance.Solution{}, false
		}
		return instance.Solution{
			Assign: resp.Assign, Makespan: resp.Makespan,
			Moves: resp.Moves, MoveCost: resp.MoveCost,
		}, true
	}
}

// Batch round-trips a batch of solve requests through POST /v1/batch.
// The returned items are in request order; each carries the status,
// result, or error that the same request would have produced as a
// single Solve. An error is returned only when the batch as a whole
// failed (malformed, oversized, or the daemon is draining).
func (c *Client) Batch(ctx context.Context, reqs []server.SolveRequest) ([]server.BatchItem, error) {
	var resp server.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", server.BatchRequest{Requests: reqs}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Items) != len(reqs) {
		return nil, fmt.Errorf("client: batch returned %d items for %d requests", len(resp.Items), len(reqs))
	}
	return resp.Items, nil
}

// Solvers fetches the daemon's solver catalog.
func (c *Client) Solvers(ctx context.Context) ([]server.SolverInfo, error) {
	var infos []server.SolverInfo
	if err := c.do(ctx, http.MethodGet, "/v1/solvers", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Ready probes /readyz; a draining or unreachable daemon returns an
// error.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Healthy probes /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Scalars scrapes GET /metrics and returns every unlabeled sample —
// counters and gauges, in Prometheus-mangled form (runtime_mallocs,
// cache_hits, ...) — as a name→value map. Histogram quantile samples
// carry labels and are skipped; their _sum/_count samples are plain and
// included. Load generators differentiate two scrapes into rates.
func (c *Client) Scalars(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &APIError{StatusCode: resp.StatusCode, Message: "metrics scrape failed"}
	}
	vals := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			continue
		}
		vals[name] = v
	}
	return vals, sc.Err()
}
