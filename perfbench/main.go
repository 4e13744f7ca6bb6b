// Command perfbench is the repository's serving benchmark. It builds the
// rebalanced serving stack inside its own process behind loopback
// listeners (shards from server.New with cmd/rebalanced's default
// settings, and router.New in front for fleet workloads), drives one
// workload at it from a single generator with at most two senders,
// verifies every response, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload hot-fleet --seed 1 --seconds 10 --trace 0
//
// A run is set-up (repeated setupReps times; the median is setup_s), an
// unmeasured warm-up, then cycles of a closed loop with two clients
// (capacity) and an open Poisson loop at the workload's frozen rate
// (latency, timed from when each request was due). --trace 0 reports the end-to-end metrics;
// --trace 1 records spans around the router and shard handlers, replays
// the inputs straight into the layers below HTTP, and reports the
// per-layer metrics. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/workload"
)

const (
	warmDur     = time.Second
	closedShare = 0.4 // of --seconds
	openShare   = 0.6 // of --seconds
	setupReps   = 61
	cycles      = 5  // closed/open alternations in the measured phases
	ladderSolve = 64 // cold-solve inputs replayed by the ladder pass
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "hot-fleet | cold-solve | session-churn")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds: 40% closed loop, 60% open loop")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload hot-fleet|cold-solve|session-churn, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	res, err := bench(context.Background(), sp, *seed, float64(*seconds), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envHeader is the environment record printed before every result.
func envHeader(sp spec, seed uint64, seconds float64, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" && commit != "unknown" {
				commit += "+dirty"
			}
		}
	}
	return map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "git_commit": commit,
		"workload": sp.name, "seed": seed, "seconds": seconds, "trace": traced,
		"open_rate_per_s": sp.rate, "senders": senders, "setup_reps": setupReps,
		"daemon": daemonSettings(),
	}
}

// schedule is the open loop's Poisson arrival offsets within window.
func schedule(seed uint64, rate, window float64) []int64 {
	due := workload.ArrivalTimes(mix(seed, tagOpen, 1), workload.Interarrival{Dist: workload.ArrivalPoisson, Rate: rate}, openCount(rate, window/openShare))
	end := int64(window * float64(time.Second))
	for i, d := range due {
		if d >= end {
			return due[:i]
		}
	}
	return due
}

// bench runs one workload end to end and returns its result; report
// lines go to out as it runs.
func bench(ctx context.Context, sp spec, seed uint64, seconds float64, traced bool, out io.Writer) (result, error) {
	env, err := json.Marshal(envHeader(sp, seed, seconds, traced))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "env %s\n", env)
	l := sp.make(seed, seconds, sp.rate)
	due := schedule(seed, sp.rate, openShare*seconds)

	g := newGen()
	defer g.hc.CloseIdleConnections()
	var spans *spanLog
	if traced {
		spans = &spanLog{}
	}
	// Set-up runs setupReps times; every stack but the last is torn down.
	var st *stack
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if st != nil {
			st.stop()
			g.hc.CloseIdleConnections()
		}
		// Start every set-up from a collected heap, so a collection
		// owed to input generation or an earlier stack is not timed.
		runtime.GC()
		t0 := time.Now()
		if st, err = startStack(ctx, g.hc, sp.shards, sp.router, spans); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		g.base = st.entry
		if err := l.open(ctx, g); err != nil {
			st.stop()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.stop()

	warm := closedLoop(ctx, g, l, phaseWarm, warmDur, 0)
	// Hot-fleet's warm-up must touch every key, however slow the host.
	for _, hot := l.(*hotLoad); hot && len(warm.samples) < hotKeys; {
		warm.merge(closedLoop(ctx, g, l, phaseWarm, warmDur, warm.elapsed))
	}
	before, err := st.counters(ctx, g.hc)
	if err != nil {
		return result{}, err
	}
	// The measured phases alternate in cycles, so each samples the
	// whole run's stretch of time, not one end of it.
	closedBlock := time.Duration(closedShare * seconds / cycles * float64(time.Second))
	openBlock := time.Duration(openShare * seconds / cycles * float64(time.Second))
	var closed, open phaseRun
	lo := 0
	for k := 1; k <= cycles; k++ {
		closed.merge(closedLoop(ctx, g, l, phaseClosed, closedBlock, closed.elapsed))
		hi := lo
		for hi < len(due) && due[hi] < int64(k)*int64(openBlock) {
			hi++
		}
		block, err := openLoop(ctx, g, l, due, lo, hi, time.Duration(k-1)*openBlock, traced)
		if err != nil {
			return result{}, fmt.Errorf("open loop: %w", err)
		}
		open.merge(block)
		lo = hi
	}
	after, err := st.counters(ctx, g.hc)
	if err != nil {
		return result{}, err
	}

	rep := newReport(out)
	phases := []*phaseRun{&warm, &closed, &open}
	attempted, failed := 0, 0
	for _, p := range phases {
		attempted += len(p.samples)
		for i := range p.samples {
			if s := &p.samples[i]; s.err != nil {
				failed++
				if failed <= 5 {
					fmt.Fprintf(out, "failure %s: %v\n", s.rid, s.err)
				}
			}
		}
	}
	correct := failed == 0 && len(open.samples) > 0 && closed.okCount() > 0
	endToEnd(rep, time.Duration(openShare*seconds*float64(time.Second)), &closed, &open, setups, attempted, failed)
	if traced {
		lerr := perLayer(ctx, rep, sp, seed, l, st, g, spans, &closed, &open, delta(before, after))
		if lerr != nil {
			fmt.Fprintf(out, "failure ladder: %v\n", lerr)
			correct = false
		}
	}
	l.release()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.put("heap_live_mb", float64(ms.HeapAlloc)/(1<<20), "MB", 0)
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: rep.pick(traced)}, nil
}

// delta returns after − before for every counter in after.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
