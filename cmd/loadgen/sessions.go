// Session mode (-sessions N): instead of stateless solves, loadgen
// opens N live rebalancing sessions (POST /v1/session) and streams
// typed deltas at each — arrivals placed least-loaded, departures,
// resizes, and the occasional processor addition — measuring the
// per-delta round trip against a cold-solve baseline: every
// -cold-every deltas the same evolving instance is also submitted to
// POST /v1/solve, so the report's "speedup" row is the end-to-end win
// of warm incremental re-solving over re-solving from scratch.
//
// Each session's delta stream is generated from seed+session, and the
// client keeps an exact mirror of the server-side instance: it picks
// arrival placements itself (explicitly, matching the server's
// least-loaded rule), applies the forced and rebalance migrations each
// delta reports, and cross-checks the mirrored makespan against the
// server's after every delta — a live differential check riding the
// load test for free. -rate paces each stream as an open arrival
// process (Poisson by default, -arrival gamma for bursts) via the same
// workload.ArrivalTimes the stateless mode and the simulator use, with
// the offered rate split evenly across sessions.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// sessionOpts is the slice of loadgen flags session mode consumes.
type sessionOpts struct {
	sessions  int           // live sessions to open
	deltas    int           // deltas per session
	workers   int           // concurrent sessions in flight
	m         int           // processors per session
	k         int           // move budget per delta
	maxSize   int64         // job sizes are uniform in [1, maxSize]
	seed      uint64        // session i streams from seed+i
	coldEvery int           // cold /v1/solve baseline cadence (0: off)
	rate      float64       // aggregate deltas/s across sessions (0: closed loop)
	arrival   string        // arrival process for -rate: poisson|gamma
	cv        float64       // interarrival CV for -arrival gamma
	timeout   time.Duration // per-request deadline
}

// mirrorJob is one live job in the client-side mirror of a session.
type mirrorJob struct {
	id   int
	size int64
	proc int
}

// sessionMirror replays the server's session state client-side so the
// generator can pick explicit placements and verify every response.
type sessionMirror struct {
	jobs  []mirrorJob
	slot  map[int]int // job id → index in jobs
	loads []int64
}

func newSessionMirror(m int) *sessionMirror {
	return &sessionMirror{slot: make(map[int]int), loads: make([]int64, m)}
}

// leastLoaded returns the lowest-indexed minimum-load processor — the
// same placement rule the session applies to an unpinned arrival.
func (mr *sessionMirror) leastLoaded() int {
	best := 0
	for p, l := range mr.loads {
		if l < mr.loads[best] {
			best = p
		}
	}
	return best
}

func (mr *sessionMirror) arrive(id int, size int64, proc int) {
	mr.slot[id] = len(mr.jobs)
	mr.jobs = append(mr.jobs, mirrorJob{id: id, size: size, proc: proc})
	mr.loads[proc] += size
}

func (mr *sessionMirror) depart(id int) {
	i := mr.slot[id]
	j := mr.jobs[i]
	mr.loads[j.proc] -= j.size
	last := len(mr.jobs) - 1
	if i != last {
		mr.jobs[i] = mr.jobs[last]
		mr.slot[mr.jobs[i].id] = i
	}
	mr.jobs = mr.jobs[:last]
	delete(mr.slot, id)
}

func (mr *sessionMirror) resize(id int, size int64) {
	i := mr.slot[id]
	mr.loads[mr.jobs[i].proc] += size - mr.jobs[i].size
	mr.jobs[i].size = size
}

// applyMoves replays the migrations a delta response reported.
func (mr *sessionMirror) applyMoves(moves []server.SessionMove) {
	for _, mv := range moves {
		i := mr.slot[mv.Job]
		mr.loads[mr.jobs[i].proc] -= mr.jobs[i].size
		mr.jobs[i].proc = mv.To
		mr.loads[mv.To] += mr.jobs[i].size
	}
}

func (mr *sessionMirror) makespan() int64 {
	var max int64
	for _, l := range mr.loads {
		if l > max {
			max = l
		}
	}
	return max
}

// instance materializes the mirror as a solve request payload for the
// cold baseline.
func (mr *sessionMirror) instance() (*instance.Instance, error) {
	sizes := make([]int64, len(mr.jobs))
	assign := make([]int, len(mr.jobs))
	for i, j := range mr.jobs {
		sizes[i], assign[i] = j.size, j.proc
	}
	return instance.New(len(mr.loads), sizes, nil, assign)
}

// runSessions drives session mode and prints its report. Sessions run
// concurrently (up to opts.workers); deltas within a session are
// sequential, matching how a real stateful client behaves.
func runSessions(ctx context.Context, cl *client.Client, opts sessionOpts) {
	deltaLat := &obs.Histogram{}
	coldLat := &obs.Histogram{}
	var stats struct {
		mu                       sync.Mutex
		ok, failed, moves, colds int64
		mismatches               int64
	}

	var arrivalCfg *workload.Interarrival
	if opts.rate > 0 {
		dist, err := workload.ParseArrivalDist(opts.arrival)
		if err != nil {
			log.Fatal(err)
		}
		arrivalCfg = &workload.Interarrival{
			Dist: dist, Rate: opts.rate / float64(opts.sessions), CV: opts.cv,
		}
	}

	start := time.Now()
	_ = par.Do(ctx, opts.sessions, opts.workers, func(si int) error {
		rng := rand.New(rand.NewSource(int64(opts.seed) + int64(si)))
		var schedule []int64
		if arrivalCfg != nil {
			schedule = workload.ArrivalTimes(opts.seed+uint64(si), *arrivalCfg, opts.deltas)
		}
		sess, _, err := cl.OpenSession(ctx, server.SessionRequest{
			M: opts.m, MoveBudget: opts.k,
		})
		if err != nil {
			stats.mu.Lock()
			stats.failed++
			stats.mu.Unlock()
			log.Printf("session %d: open: %v", si, err)
			return nil
		}
		mirror := newSessionMirror(opts.m)
		next := si * opts.deltas * 2 // job-id space disjoint across sessions
		for d := 0; d < opts.deltas; d++ {
			if schedule != nil {
				if w := time.Until(start.Add(time.Duration(schedule[d]))); w > 0 {
					select {
					case <-ctx.Done():
						return nil
					case <-time.After(w):
					}
				}
			}
			rctx := ctx
			var cancel context.CancelFunc
			if opts.timeout > 0 {
				rctx, cancel = context.WithTimeout(ctx, opts.timeout)
			}
			res, derr := issueDelta(rctx, sess, rng, mirror, &next, opts.maxSize)
			if cancel != nil {
				cancel()
			}
			if derr != nil {
				stats.mu.Lock()
				stats.failed++
				stats.mu.Unlock()
				log.Printf("session %d delta %d: %v", si, d, derr)
				if ctx.Err() != nil {
					return nil
				}
				continue
			}
			deltaLat.Observe(res.latency.Nanoseconds())
			stats.mu.Lock()
			stats.ok++
			stats.moves += int64(res.moves)
			if res.mismatch {
				stats.mismatches++
			}
			stats.mu.Unlock()
			if opts.coldEvery > 0 && (d+1)%opts.coldEvery == 0 && len(mirror.jobs) > 0 {
				if ns, err := coldSolve(ctx, cl, mirror, opts.k, opts.timeout); err != nil {
					if ctx.Err() != nil {
						return nil
					}
					log.Printf("session %d cold baseline: %v", si, err)
				} else {
					coldLat.Observe(ns)
					stats.mu.Lock()
					stats.colds++
					stats.mu.Unlock()
				}
			}
		}
		return nil
	})
	elapsed := time.Since(start)

	fmt.Printf("loadgen: session mode, %d sessions x %d deltas (concurrency %d, m=%d, k=%d)\n",
		opts.sessions, opts.deltas, opts.workers, opts.m, opts.k)
	fmt.Printf("outcomes:   %d deltas ok, %d failed, %d migrations (%.2f/delta)\n",
		stats.ok, stats.failed, stats.moves, perDelta(stats.moves, stats.ok))
	if stats.mismatches > 0 {
		fmt.Printf("MISMATCH:   %d deltas where the mirrored makespan disagreed with the server\n", stats.mismatches)
	}
	fmt.Printf("elapsed:    %v (%.1f deltas/s)\n", elapsed.Round(time.Millisecond),
		float64(stats.ok)/elapsed.Seconds())
	if deltaLat.Count() > 0 {
		fmt.Printf("delta:      p50=%v p90=%v p99=%v max=%v%s\n",
			time.Duration(deltaLat.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(deltaLat.Quantile(0.90)).Round(time.Microsecond),
			time.Duration(deltaLat.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(deltaLat.Max()).Round(time.Microsecond), estimated(deltaLat))
	}
	if coldLat.Count() > 0 {
		fmt.Printf("cold solve: p50=%v p90=%v p99=%v (sampled every %d deltas, n=%d)%s\n",
			time.Duration(coldLat.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(coldLat.Quantile(0.90)).Round(time.Microsecond),
			time.Duration(coldLat.Quantile(0.99)).Round(time.Microsecond),
			opts.coldEvery, stats.colds, estimated(coldLat))
		if d := deltaLat.Quantile(0.50); d > 0 {
			fmt.Printf("speedup:    %.2fx at p50, %.2fx at p99 (cold round trip / warm delta round trip)\n",
				float64(coldLat.Quantile(0.50))/float64(d),
				float64(coldLat.Quantile(0.99))/float64(deltaLat.Quantile(0.99)))
		}
	}
}

// deltaResult is what one issued delta contributes to the report.
type deltaResult struct {
	latency  time.Duration
	moves    int
	mismatch bool
}

// issueDelta picks the next delta from the stream mix — 55% arrivals
// (explicitly placed least-loaded), 22% departures, 20% resizes, 3%
// processor additions; never drains, so the mirror's processor indices
// stay stable — applies it over HTTP, and folds the response's
// migrations back into the mirror.
func issueDelta(ctx context.Context, sess *client.Session, rng *rand.Rand, mirror *sessionMirror, next *int, maxSize int64) (deltaResult, error) {
	var (
		res *server.SessionDeltaResult
		err error
	)
	roll := rng.Intn(100)
	t0 := time.Now()
	switch {
	case roll < 55 || len(mirror.jobs) == 0:
		id := *next
		*next++
		size := 1 + rng.Int63n(maxSize)
		proc := mirror.leastLoaded()
		if res, err = sess.Arrive(ctx, id, size, 0, proc); err == nil {
			mirror.arrive(id, size, proc)
		}
	case roll < 77:
		id := mirror.jobs[rng.Intn(len(mirror.jobs))].id
		if res, err = sess.Depart(ctx, id); err == nil {
			mirror.depart(id)
		}
	case roll < 97:
		id := mirror.jobs[rng.Intn(len(mirror.jobs))].id
		size := 1 + rng.Int63n(maxSize)
		if res, err = sess.Resize(ctx, id, size); err == nil {
			mirror.resize(id, size)
		}
	default:
		if res, err = sess.AddProc(ctx); err == nil {
			mirror.loads = append(mirror.loads, 0)
		}
	}
	lat := time.Since(t0)
	if err != nil {
		return deltaResult{}, err
	}
	mirror.applyMoves(res.Forced)
	mirror.applyMoves(res.Moves)
	return deltaResult{
		latency:  lat,
		moves:    len(res.Forced) + len(res.Moves),
		mismatch: mirror.makespan() != res.Makespan,
	}, nil
}

// coldSolve submits the mirrored instance as a stateless
// POST /v1/solve and returns the round-trip nanoseconds — the baseline
// a session-less client would pay to re-solve after the same delta.
func coldSolve(ctx context.Context, cl *client.Client, mirror *sessionMirror, k int, timeout time.Duration) (int64, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	in, err := mirror.instance()
	if err != nil {
		return 0, err
	}
	req := server.SolveRequest{Solver: "mpartition", K: k}
	req.Instance.Instance = *in
	t0 := time.Now()
	if _, err := cl.Solve(ctx, req); err != nil {
		return 0, err
	}
	return time.Since(t0).Nanoseconds(), nil
}

func perDelta(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
