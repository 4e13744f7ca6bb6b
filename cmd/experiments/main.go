// Command experiments runs the full evaluation suite (DESIGN.md §3) and
// prints one markdown table per experiment — the content recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-only E1,E5] [-list] [-workers N]
//	experiments -only E9 -trace e9.jsonl -metrics -debug-addr localhost:6060
//
// -workers N sizes the worker pool that experiments.RunAll fans the
// experiments out on; each experiment itself runs on one goroutine.
// The default is runtime.GOMAXPROCS(0); table contents are identical at
// every worker count, but wall-clock columns (E3, E7, E11) are
// distorted by concurrency — use -workers 1 when recording those.
// -only runs the listed IDs and exits 1, naming them, if any matches no
// experiment.
//
// Observability: -trace FILE streams the solvers' structured JSONL
// events, -metrics prints the aggregated metric summary to stderr after
// the suite, and -debug-addr HOST:PORT serves expvar (/debug/vars,
// including the live metric snapshot) and pprof (/debug/pprof) while
// experiments run — profiling hooks for the long simulation paths.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker pool size for the experiment fan-out (1 = sequential; timing tables want 1)")
	traceFile := flag.String("trace", "", "write a JSONL event trace to this file")
	metrics := flag.Bool("metrics", false, "print an end-of-run metrics summary to stderr")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address during the run")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		fmt.Println(rebalance.Version())
		return
	}

	var sink *obs.Sink
	var tracer *obs.JSONLTracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tracer = obs.NewJSONL(f)
		tracer.Clock = time.Now
		sink = obs.NewTracing(tracer)
	} else if *metrics || *debugAddr != "" {
		sink = obs.New()
	}
	if sink != nil {
		experiments.SetSink(sink)
	}
	if sink.Tracing() {
		sink.Emit("trace_header", obs.Fields{"version": rebalance.Version(), "cmd": "experiments"})
	}
	if *debugAddr != "" {
		obs.PublishExpvar("rebalance", sink)
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	chosen, unknown := choose(all, *only)
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q; use -list\n", *only)
		os.Exit(1)
	}
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %s; use -list\n", strings.Join(unknown, ", "))
		os.Exit(1)
	}

	// Ctrl-C / SIGTERM cancels the fan-out context: experiments not yet
	// claimed are skipped, and the suite exits with the context error
	// instead of dying mid-table. -workers 1 runs the suite in order on
	// this goroutine; output order is preserved either way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	results, err := experiments.RunAll(ctx, chosen, *workers)
	if err != nil {
		log.Fatalf("interrupted: %v", err)
	}

	for i, e := range chosen {
		fmt.Printf("## %s — %s\n\n", e.ID, e.Title)
		fmt.Printf("Expected shape: %s.\n\n", e.Note)
		results[i].Table.Render(os.Stdout)
		fmt.Printf("\n(%s in %v)\n\n", e.ID, results[i].Elapsed.Round(time.Millisecond))
	}

	if *metrics && sink != nil {
		snap := sink.Snapshot()
		snap.Version = rebalance.Version()
		if err := snap.WriteSummary(os.Stderr); err != nil {
			log.Printf("metrics: %v", err)
		}
	}
	if tracer != nil {
		if err := tracer.Err(); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}
}

// choose returns the experiments of all named in the comma-separated
// only list (case-insensitive; empty means all), in suite order, and the
// listed IDs that name none of them, in list order.
func choose(all []experiments.Experiment, only string) (chosen []experiments.Experiment, unknown []string) {
	var ids []string
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	for _, e := range all {
		if len(ids) == 0 || slices.ContainsFunc(ids, func(id string) bool { return strings.EqualFold(id, e.ID) }) {
			chosen = append(chosen, e)
		}
	}
	for _, id := range ids {
		if !slices.ContainsFunc(all, func(e experiments.Experiment) bool { return strings.EqualFold(id, e.ID) }) {
			unknown = append(unknown, id)
		}
	}
	return chosen, unknown
}
