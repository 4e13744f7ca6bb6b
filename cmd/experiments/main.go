// Command experiments runs the full evaluation suite (DESIGN.md §3) and
// prints one markdown table per experiment — the content recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-only E1,E5] [-list] [-workers N]
//	experiments -only E9 -trace e9.jsonl -metrics -debug-addr localhost:6060
//
// -workers N bounds the worker pool that experiments.RunAll fans the
// experiments out on and is also handed to the internally parallel
// surfaces (the E9 policy comparison, the E15 adversary hunt). The
// default is runtime.GOMAXPROCS(0); table contents are identical at
// every worker count, but wall-clock columns (E3, E7, E11) are
// distorted by concurrency — use -workers 1 when recording those.
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

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[strings.ToUpper(id)] = true
		}
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var chosen []experiments.Experiment
	for _, e := range all {
		if len(selected) == 0 || selected[e.ID] {
			chosen = append(chosen, e)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q; use -list\n", *only)
		os.Exit(1)
	}

	experiments.SetWorkers(*workers)
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
