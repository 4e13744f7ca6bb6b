// Command rebalance reads a load rebalancing instance (JSON, as written
// by genwork; the extended format may add "allowed" machine sets and
// "conflicts" pairs) and runs one of the paper's algorithms on it.
//
// Usage:
//
//	rebalance -alg mpartition -k 10 < instance.json
//	rebalance -alg budget -budget 500 instance.json
//	rebalance -alg greedy -k 3 -show instance.json
//	rebalance -alg exact -k 4 -timeout 30s instance.json
//	rebalance -alg mpartition -k 10 -trace run.jsonl -metrics instance.json
//	rebalance -alg constrained -k 5 extended.json
//	rebalance -alg frontier instance.json
//	rebalance -list
//
// The algorithm catalog — names, accepted tuning flags, approximation
// bounds — lives in the solver registry (internal/engine) and is
// printed by -list; the usage text below is generated from the same
// registry, so it cannot drift from what dispatch accepts. Passing a
// flag the chosen algorithm does not consume is an error, not a silent
// no-op. -timeout bounds any run with a deadline: the solver is
// cancelled mid-search and the command exits with the context error.
//
// Observability: -trace FILE streams structured JSONL events (probe
// targets, removals, DP layers, LP pivots — see DESIGN.md
// §"Observability"), -metrics prints an end-of-run metric summary to
// stderr, and -debug-addr HOST:PORT serves expvar (/debug/vars) and
// pprof (/debug/pprof) while the run is in flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// flagHelp derives a tuning flag's help text from the registry, so the
// help string names exactly the algorithms that consume the flag.
func flagHelp(name, meaning string) string {
	return fmt.Sprintf("%s (%s)", meaning, strings.Join(engine.ConsumersOf(name), ", "))
}

// lookup resolves -alg in the registry and rejects explicitly-set
// tuning flags the solver does not consume.
func lookup(alg string, set map[string]bool) (engine.Spec, error) {
	spec, ok := engine.Lookup(alg)
	if !ok {
		return spec, engine.UnknownSolver(alg)
	}
	return spec, spec.ValidateFlags(set)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rebalance: ")
	alg := flag.String("alg", "mpartition",
		"algorithm: "+strings.Join(engine.Names(), "|"))
	list := flag.Bool("list", false, "print the algorithm catalog and exit")
	k := flag.Int("k", 0, flagHelp("k", "move budget"))
	budget := flag.Int64("budget", 0, flagHelp("budget", "relocation cost budget"))
	eps := flag.Float64("eps", 1.0, flagHelp("eps", "approximation parameter"))
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		flagHelp("workers", "worker pool size; 1 = sequential, results identical at every value"))
	timeout := flag.Duration("timeout", 0,
		"wall-clock limit for the run; 0 disables (exponential solvers poll it mid-search)")
	remote := flag.String("remote", "",
		"solve via a running rebalanced daemon at this address instead of in-process")
	show := flag.Bool("show", false, "print the resulting assignment")
	traceFile := flag.String("trace", "", "write a JSONL event trace to this file")
	metrics := flag.Bool("metrics", false, "print an end-of-run metrics summary to stderr")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address during the run")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rebalance [flags] [instance.json]\n")
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), "\n"+engine.UsageText())
	}
	flag.Parse()

	if *version {
		fmt.Println(rebalance.Version())
		return
	}
	if *list {
		fmt.Print(engine.ListText())
		return
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	spec, err := lookup(*alg, explicit)
	if err != nil {
		log.Fatal(err)
	}

	// Ctrl-C / SIGTERM flows through the same ctx the solvers poll, so an
	// interrupted run cancels mid-solve and exits with the context error
	// instead of dying between bisection probes.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Observability: a sink exists whenever any surface asked for it;
	// solvers receive nil otherwise and skip all instrumentation.
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
	if *debugAddr != "" {
		obs.PublishExpvar("rebalance", sink)
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	var r io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	ext, err := instance.DecodeExtended(r)
	if err != nil {
		log.Fatal(err)
	}
	in := &ext.Instance

	if sink.Tracing() {
		sink.Emit("trace_header", obs.Fields{
			"version": rebalance.Version(), "alg": *alg,
			"jobs": in.N(), "procs": in.M,
		})
	}

	if *remote != "" {
		runRemote(ctx, *remote, *alg, spec, ext, *k, *budget, *eps, *timeout, *show)
		finishObs(sink, tracer, *metrics)
		return
	}

	if spec.Kind == engine.KindSweep {
		runFrontier(ctx, in, sink, *workers)
		finishObs(sink, tracer, *metrics)
		return
	}

	sol, err := spec.Solve(ctx, in, engine.Params{
		K: *k, Budget: *budget, Eps: *eps,
		Obs: sink, Allowed: ext.Allowed, Conflicts: ext.Conflicts,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := rebalance.Check(in, sol)
	if err != nil {
		log.Fatalf("solution failed verification: %v", err)
	}

	fmt.Printf("instance:   %s\n", in)
	fmt.Printf("algorithm:  %s\n", *alg)
	fmt.Printf("makespan:   %d -> %d (lower bound %d)\n",
		in.InitialMakespan(), rep.Makespan, in.LowerBound())
	fmt.Printf("moves:      %d (cost %d)\n", rep.Moves, rep.MoveCost)
	if *show {
		for j, p := range sol.Assign {
			marker := " "
			if p != in.Assign[j] {
				marker = "*"
			}
			fmt.Printf("  job %3d size %6d cost %6d: %d -> %d %s\n",
				j, in.Jobs[j].Size, in.Jobs[j].Cost, in.Assign[j], p, marker)
		}
	}
	finishObs(sink, tracer, *metrics)
}

// finishObs flushes the observability surfaces: the metrics summary to
// stderr when requested and any sticky trace write error.
func finishObs(sink *obs.Sink, tracer *obs.JSONLTracer, metrics bool) {
	if metrics && sink != nil {
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

// runRemote ships the solve to a rebalanced daemon and prints the same
// report as a local run. Solution-kind results are re-verified locally
// (rebalance.Check), so a buggy or mismatched daemon cannot hand back a
// silently wrong assignment.
func runRemote(ctx context.Context, addr, alg string, spec engine.Spec, ext *instance.Extended,
	k int, budget int64, eps float64, timeout time.Duration, show bool) {
	// Ship only the parameters the solver's capabilities advertise: the
	// server rejects set-but-unconsumed fields just like local flag
	// validation, and flag defaults (e.g. -eps 1.0) must not trip that.
	req := server.SolveRequest{
		Solver: alg, Instance: *ext,
		TimeoutMS: int64(timeout / time.Millisecond),
	}
	if spec.Caps.K {
		req.K = k
	}
	if spec.Caps.Budget {
		req.Budget = budget
	}
	if spec.Caps.Eps {
		req.Eps = eps
	}
	resp, err := client.New(addr, nil).Solve(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	in := &ext.Instance
	if spec.Kind == engine.KindSweep {
		fmt.Printf("instance: %s (remote %s)\n", in, addr)
		fmt.Printf("%8s %12s %8s %14s\n", "k", "makespan", "moves", "vs lower bound")
		for _, pt := range resp.Points {
			fmt.Printf("%8d %12d %8d %14.3f\n",
				pt.K, pt.Makespan, pt.Moves, float64(pt.Makespan)/float64(in.LowerBound()))
		}
		return
	}
	sol := instance.NewSolution(in, resp.Assign)
	rep, err := rebalance.Check(in, sol)
	if err != nil {
		log.Fatalf("remote solution failed verification: %v", err)
	}
	if sol.Makespan != resp.Makespan {
		log.Fatalf("remote makespan %d disagrees with local recomputation %d", resp.Makespan, sol.Makespan)
	}
	fmt.Printf("instance:   %s\n", in)
	fmt.Printf("algorithm:  %s (remote %s, request %s, queue %v, solve %v)\n", alg, addr,
		resp.RequestID,
		time.Duration(resp.Timing.QueueNS).Round(time.Microsecond),
		time.Duration(resp.Timing.SolveNS).Round(time.Microsecond))
	fmt.Printf("makespan:   %d -> %d (lower bound %d)\n",
		in.InitialMakespan(), rep.Makespan, in.LowerBound())
	fmt.Printf("moves:      %d (cost %d)\n", rep.Moves, rep.MoveCost)
	if show {
		for j, p := range sol.Assign {
			marker := " "
			if p != in.Assign[j] {
				marker = "*"
			}
			fmt.Printf("  job %3d size %6d cost %6d: %d -> %d %s\n",
				j, in.Jobs[j].Size, in.Jobs[j].Cost, in.Assign[j], p, marker)
		}
	}
}

// runFrontier prints the makespan-vs-k tradeoff for doubling budgets,
// sweeping the k values on up to workers goroutines.
func runFrontier(ctx context.Context, in *rebalance.Instance, sink *obs.Sink, workers int) {
	ks := rebalance.DefaultFrontierKs(in.N())
	fmt.Printf("instance: %s\n", in)
	fmt.Printf("%8s %12s %8s %14s\n", "k", "makespan", "moves", "vs lower bound")
	points, err := rebalance.Frontier(ctx, in, ks, rebalance.FrontierOptions{Workers: workers, Obs: sink})
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range points {
		fmt.Printf("%8d %12d %8d %14.3f\n",
			pt.K, pt.Makespan, pt.Moves, float64(pt.Makespan)/float64(in.LowerBound()))
	}
}
