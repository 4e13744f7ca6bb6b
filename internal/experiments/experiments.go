// Package experiments implements the reproduction's evaluation suite
// (DESIGN.md §3). The paper is purely theoretical — its quantitative
// claims are theorem bounds, tightness examples, and running-time
// statements — so each experiment validates one of those claims and
// emits a table; cmd/experiments renders them all, and EXPERIMENTS.md
// records a run.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/conflict"
	"repro/internal/constrained"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gap"
	"repro/internal/greedy"
	"repro/internal/hardness"
	"repro/internal/instance"
	"repro/internal/lpbound"
	"repro/internal/movemin"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/ptas"
	"repro/internal/scheduling"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sink is the package-wide observability handle; nil (the default)
// disables all instrumentation. cmd/experiments sets it from its
// -trace/-metrics/-debug-addr flags before running the suite.
var sink *obs.Sink

// SetSink routes solver, LP and simulation instrumentation of
// subsequent experiment runs into s. Call before Run; not safe
// concurrently with a running experiment.
func SetSink(s *obs.Sink) { sink = s }

// Result is one finished experiment: its table and how long it ran.
type Result struct {
	Table   *stats.Table
	Elapsed time.Duration
}

// RunAll executes the given experiments on up to w workers (≤ 0 means
// runtime.GOMAXPROCS(0), 1 runs them sequentially on the calling
// goroutine) and returns their results in input order regardless of
// scheduling. When ctx fires, experiments not yet started are skipped
// and ctx.Err() returns with the partial results (finished entries
// filled, skipped entries zero). An in-flight experiment runs to
// completion — the tables are built from whole runs only.
func RunAll(ctx context.Context, exps []Experiment, w int) ([]Result, error) {
	results := make([]Result, len(exps))
	err := par.Do(ctx, len(exps), w, func(i int) error {
		start := time.Now()
		results[i] = Result{Table: exps[i].Run(), Elapsed: time.Since(start)}
		return nil
	})
	return results, err
}

// Experiment is one entry of the suite.
type Experiment struct {
	ID    string
	Title string
	// Note states the paper claim being exercised and the expected shape.
	Note string
	Run  func() *stats.Table
}

// All returns the full suite in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"E1", "GREEDY tightness (Theorem 1)",
			"adversarial ratio approaches 2−1/m while M-PARTITION stays ≤ 1.5", E1},
		{"E2", "PARTITION approximation ratio (Theorem 2)",
			"ratios ≤ 1.5 everywhere; the paper's tight instance hits exactly 1.5", E2},
		{"E3", "Running-time scaling (Theorems 1 and 3)",
			"near-linearithmic growth: time/(n·log n) roughly flat", E3},
		{"E4", "PTAS quality vs ε (Theorem 4)",
			"ratio approaches 1 as ε shrinks while runtime explodes", E4},
		{"E5", "Algorithm comparison at small n",
			"quality order exact ≤ PTAS(1) ≤ M-PARTITION ≤ GREEDY within their bounds", E5},
		{"E6", "Makespan vs budget frontier (§3.2)",
			"monotone non-increasing frontier under arbitrary costs", E6},
		{"E7", "Shmoys–Tardos GAP baseline (§2 reduction)",
			"M-PARTITION (1.5) beats the 2-approximation baseline on quality and time", E7},
		{"E8", "Move minimization hardness (Theorem 5)",
			"exact decides the PARTITION gadgets; greedy must err on some", E8},
		{"E9", "Web farm simulation (intro scenario / Linder–Shah)",
			"budgeted rebalancing recovers most of full rebalancing's peak-load reduction with far fewer moves", E9},
		{"E10", "3DM reductions (Theorem 6/7, Corollary 1)",
			"gadget objective met exactly on YES instances, gap ≥ 3/2 on NO instances", E10},
		{"E11", "Ablation: M-PARTITION search strategy (§3.1)",
			"binary search and the paper's threshold ladder give the same guarantee; binary search scales better", E11},
		{"E12", "Makespan-vs-k frontier (§1 problem statement)",
			"diminishing returns: most of the balance is recovered by the first few moves", E12},
		{"E13", "Certified quality at scale (LP lower bound)",
			"makespan / LP-bound stays well below the proven 1.5 at sizes the exact solver cannot reach", E13},
		{"E14", "The k = n regime vs classical scheduling (§2 reduction source)",
			"unlimited-move rebalancing matches LPT/MULTIFIT/Hochbaum–Shmoys quality", E14},
		{"E15", "Empirical worst-case hunt",
			"random search pushes GREEDY toward 2−1/m but never M-PARTITION past 1.5", E15},
	}
}

// E1 sweeps the Theorem 1 tight instance.
func E1() *stats.Table {
	t := stats.NewTable("m", "OPT", "greedy-adversarial", "ratio", "bound 2-1/m", "greedy-LPT", "mpartition", "mp-ratio")
	for _, m := range []int{4, 8, 16, 32, 64} {
		in := instance.GreedyTight(m)
		k := instance.GreedyTightK(m)
		opt := int64(m)
		adv := greedy.Rebalance(in, k, greedy.OrderSmallestFirst, sink)
		good := greedy.Rebalance(in, k, greedy.OrderLargestFirst, sink)
		mp, _ := core.MPartition(context.Background(), in, k, core.BinarySearch, sink)
		t.Addf(m, opt, adv.Makespan, float64(adv.Makespan)/float64(opt),
			2-1.0/float64(m), good.Makespan, mp.Makespan, float64(mp.Makespan)/float64(opt))
	}
	return t
}

// E2 measures PARTITION and GREEDY ratios against the exact optimum.
func E2() *stats.Table {
	t := stats.NewTable("workload", "k", "trials", "greedy mean", "greedy max", "mpartition mean", "mpartition max")
	for _, wl := range []workload.SizeDist{workload.SizeUniform, workload.SizeZipf, workload.SizeBimodal} {
		for _, k := range []int{2, 4} {
			var gr, pr []float64
			for seed := uint64(0); seed < 25; seed++ {
				in := workload.Generate(workload.Config{
					N: 10, M: 3, MaxSize: 40, Sizes: wl,
					Placement: workload.PlaceRandom, Seed: seed,
				})
				opt, err := exact.Solve(context.Background(), in, k, exact.Limits{})
				if err != nil {
					continue
				}
				g := greedy.Rebalance(in, k, greedy.OrderLargestFirst, sink)
				p, _ := core.MPartition(context.Background(), in, k, core.BinarySearch, sink)
				gr = append(gr, float64(g.Makespan)/float64(opt.Makespan))
				pr = append(pr, float64(p.Makespan)/float64(opt.Makespan))
			}
			gs, ps := stats.Summarize(gr), stats.Summarize(pr)
			t.Addf(wl.String(), k, gs.N, gs.Mean, gs.Max, ps.Mean, ps.Max)
		}
	}
	// The paper's tight instance: exactly 1.5.
	in := instance.PartitionTight()
	p, _ := core.MPartition(context.Background(), in, instance.PartitionTightK(), core.BinarySearch, sink)
	t.Addf("paper-tight", instance.PartitionTightK(), 1, "-", "-",
		float64(p.Makespan)/float64(instance.PartitionTightOPT()),
		float64(p.Makespan)/float64(instance.PartitionTightOPT()))
	return t
}

// E3 times GREEDY and M-PARTITION across n.
func E3() *stats.Table {
	t := stats.NewTable("n", "greedy ms", "greedy ns/(n log n)", "mpartition ms", "mpartition ns/(n log n)")
	for _, n := range []int{1000, 4000, 16000, 64000, 256000} {
		in := workload.Generate(workload.Config{
			N: n, M: 32, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 5,
		})
		k := n / 10
		g0 := time.Now()
		greedy.Rebalance(in, k, greedy.OrderLargestFirst, sink)
		gd := time.Since(g0)
		p0 := time.Now()
		core.MPartition(context.Background(), in, k, core.BinarySearch, sink)
		pd := time.Since(p0)
		nlogn := float64(n) * log2(float64(n))
		t.Addf(n, float64(gd.Microseconds())/1000, float64(gd.Nanoseconds())/nlogn,
			float64(pd.Microseconds())/1000, float64(pd.Nanoseconds())/nlogn)
	}
	return t
}

func log2(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}

// E4 sweeps the PTAS over ε.
func E4() *stats.Table {
	t := stats.NewTable("eps", "trials", "mean ratio", "max ratio", "bound 1+eps", "mean time ms")
	for _, eps := range []float64{2.5, 1.5, 1.0, 0.75} {
		var ratios []float64
		var total time.Duration
		trials := 0
		for seed := uint64(0); seed < 12; seed++ {
			in := workload.Generate(workload.Config{
				N: 8, M: 3, MaxSize: 30, Sizes: workload.SizeUniform,
				Placement: workload.PlaceRandom, Seed: seed,
			})
			b := int64(3)
			opt, err := exact.SolveBudget(context.Background(), in, b, exact.Limits{})
			if err != nil {
				continue
			}
			t0 := time.Now()
			sol, err := ptas.Solve(context.Background(), in, b, ptas.Options{Eps: eps, Obs: sink})
			if err != nil {
				continue
			}
			total += time.Since(t0)
			trials++
			ratios = append(ratios, float64(sol.Makespan)/float64(opt.Makespan))
		}
		s := stats.Summarize(ratios)
		t.Addf(eps, trials, s.Mean, s.Max, 1+eps,
			float64(total.Microseconds())/1000/float64(max(trials, 1)))
	}
	return t
}

// E5 compares every algorithm on identical instances, dispatching each
// contender through the engine registry by name — the same path the CLI
// uses — so the table exercises exactly what ships.
func E5() *stats.Table {
	t := stats.NewTable("algorithm", "mean ratio", "max ratio", "bound")
	type algo struct {
		label  string
		solver string // engine registry name
		params func(k int) engine.Params
	}
	algos := []algo{
		{"exact", "exact", func(k int) engine.Params {
			return engine.Params{K: k}
		}},
		{"ptas(eps=1)", "ptas", func(k int) engine.Params {
			return engine.Params{Budget: int64(k), Eps: 1, Obs: sink}
		}},
		{"mpartition", "mpartition", func(k int) engine.Params {
			return engine.Params{K: k, Obs: sink}
		}},
		{"partition-budget", "budget", func(k int) engine.Params {
			return engine.Params{Budget: int64(k)}
		}},
		{"greedy", "greedy", func(k int) engine.Params {
			return engine.Params{K: k, Obs: sink}
		}},
		{"gap-baseline", "gap", func(k int) engine.Params {
			return engine.Params{Budget: int64(k), Obs: sink}
		}},
	}
	type trial struct {
		in  *instance.Instance
		k   int
		opt int64
	}
	var trials []trial
	for seed := uint64(0); seed < 20; seed++ {
		in := workload.Generate(workload.Config{
			N: 9, M: 3, MaxSize: 30, Sizes: workload.SizeDist(seed % 3),
			Placement: workload.PlaceRandom, Seed: seed,
		})
		k := 3
		opt, err := exact.Solve(context.Background(), in, k, exact.Limits{})
		if err != nil {
			continue
		}
		trials = append(trials, trial{in, k, opt.Makespan})
	}
	for _, a := range algos {
		spec, ok := engine.Lookup(a.solver)
		if !ok {
			panic("E5: unregistered solver " + a.solver)
		}
		var ratios []float64
		for _, tr := range trials {
			sol, err := engine.Solve(context.Background(), a.solver, tr.in, a.params(tr.k))
			if err != nil {
				continue
			}
			ratios = append(ratios, float64(sol.Makespan)/float64(tr.opt))
		}
		s := stats.Summarize(ratios)
		t.Addf(a.label, s.Mean, s.Max, spec.Guarantee)
	}
	return t
}

// E6 sweeps the relocation budget under two cost models.
func E6() *stats.Table {
	t := stats.NewTable("costs", "budget", "partition-budget makespan", "gap makespan", "initial")
	for _, cm := range []workload.CostModel{workload.CostProportional, workload.CostAntiCorrelated} {
		in := workload.Generate(workload.Config{
			N: 40, M: 5, MaxSize: 100, Sizes: workload.SizeZipf,
			Costs: cm, Placement: workload.PlaceSkewed, Seed: 21,
		})
		maxB := in.TotalSize()
		for _, frac := range []int64{0, 5, 10, 25, 50, 100} {
			b := maxB * frac / 100
			pb, _ := core.PartitionBudget(context.Background(), in, b, core.BudgetOptions{}, sink)
			gb, err := gap.Rebalance(in, b, sink)
			gms := int64(-1)
			if err == nil {
				gms = gb.Makespan
			}
			t.Addf(cm.String(), b, pb.Makespan, gms, in.InitialMakespan())
		}
	}
	return t
}

// E7 compares M-PARTITION with the GAP baseline head to head.
func E7() *stats.Table {
	t := stats.NewTable("metric", "mpartition", "gap-baseline")
	var mpR, gapR []float64
	for seed := uint64(0); seed < 20; seed++ {
		in := workload.Generate(workload.Config{
			N: 10, M: 3, MaxSize: 30, Costs: workload.CostUnit,
			Placement: workload.PlaceRandom, Seed: seed,
		})
		k := 4
		opt, err := exact.Solve(context.Background(), in, k, exact.Limits{})
		if err != nil {
			continue
		}
		mp, _ := core.MPartition(context.Background(), in, k, core.BinarySearch, sink)
		gp, err := gap.Rebalance(in, int64(k), sink)
		if err != nil {
			continue
		}
		mpR = append(mpR, float64(mp.Makespan)/float64(opt.Makespan))
		gapR = append(gapR, float64(gp.Makespan)/float64(opt.Makespan))
	}
	ms, gs := stats.Summarize(mpR), stats.Summarize(gapR)
	t.Addf("mean ratio", ms.Mean, gs.Mean)
	t.Addf("max ratio", ms.Max, gs.Max)

	// Runtime on a medium instance.
	in := workload.Generate(workload.Config{
		N: 60, M: 6, MaxSize: 200, Sizes: workload.SizeZipf,
		Placement: workload.PlaceSkewed, Seed: 9,
	})
	t0 := time.Now()
	core.MPartition(context.Background(), in, 10, core.BinarySearch, sink)
	mpT := time.Since(t0)
	t0 = time.Now()
	if _, err := gap.Rebalance(in, 10, sink); err != nil {
		panic(err)
	}
	gapT := time.Since(t0)
	t.Addf("time ms (n=60)", float64(mpT.Microseconds())/1000, float64(gapT.Microseconds())/1000)
	return t
}

// E8 exercises the Theorem 5 gadgets.
func E8() *stats.Table {
	t := stats.NewTable("weights", "partitionable", "exact verdict", "exact moves", "greedy verdict")
	cases := []struct {
		name    string
		weights []int64
		yes     bool
	}{
		{"{1,1}", []int64{1, 1}, true},
		{"{3,1,1,1}", []int64{3, 1, 1, 1}, true},
		{"{3,3,2}", []int64{3, 3, 2}, false},
		{"{5,4,3,2}", []int64{5, 4, 3, 2}, true},
		{"{7,1,1,1}", []int64{7, 1, 1, 1}, false},
		{"{8,7,6,5,4}", []int64{8, 7, 6, 5, 4}, true},
	}
	for _, c := range cases {
		in, target := movemin.FromPartition(c.weights)
		k, _, err := movemin.Exact(context.Background(), in, target, exact.Limits{})
		verdict := "feasible"
		moves := fmt.Sprint(k)
		if errors.Is(err, instance.ErrInfeasible) {
			verdict, moves = "infeasible", "-"
		}
		_, gSol, gOK := movemin.Greedy(in, target)
		gv := "failed"
		if gOK && gSol.Makespan <= target {
			gv = "solved"
		}
		t.Addf(c.name, c.yes, verdict, moves, gv)
	}
	return t
}

// E9 runs the web-farm simulation under each policy on identical traffic.
func E9() *stats.Table {
	t := stats.NewTable("policy", "peak makespan", "mean makespan", "mean imbalance", "total moves")
	cfg := sim.Config{
		Sites: 200, Servers: 10, Steps: 300, RebalanceEvery: 5,
		MovesPerRound: 8, FlashProb: 0.15, Seed: 42, Obs: sink,
	}
	for _, p := range []sim.Policy{
		sim.PolicyNone{}, sim.PolicyEngine{Solver: "greedy"}, sim.PolicyEngine{Solver: "mpartition"},
		sim.PolicyTriggered{Trigger: 1.5}, sim.PolicyFull{},
	} {
		m, err := sim.Run(cfg, p)
		if err != nil {
			panic(err)
		}
		t.Addf(m.Policy, m.PeakMakespan, m.MeanMakespan, m.MeanImbalance, m.TotalMoves)
	}
	return t
}

// E10 exercises the Theorem 6/7 reduction gadgets.
func E10() *stats.Table {
	t := stats.NewTable("gadget", "3DM", "objective", "achieved", "decision correct")
	no := &hardness.ThreeDM{N: 2, Triples: []hardness.Triple{
		{A: 0, B: 0, C: 0}, {A: 1, B: 0, C: 1}, {A: 1, B: 1, C: 0},
	}}
	for _, d := range []*hardness.ThreeDM{hardness.Planted(3, 3, 1), no} {
		kind := "YES"
		if !d.HasMatching() {
			kind = "NO"
		}
		ci, target, err := constrained.FromThreeDM(d)
		if err != nil {
			panic(err)
		}
		sol, err := constrained.Exact(context.Background(), ci, ci.Base.N(), 0)
		if err != nil {
			panic(err)
		}
		correct := (sol.Makespan == target) == (kind == "YES")
		t.Addf("constrained (Cor 1)", kind, fmt.Sprintf("makespan %d", target), sol.Makespan, correct)

		cfI, err := conflict.FromThreeDM(d)
		if err != nil {
			panic(err)
		}
		_, feas := conflict.Feasible(cfI, 0)
		t.Addf("conflict (Thm 7)", kind, "feasibility", feas, feas == (kind == "YES"))

		g, err := hardness.NewTwoCostGAP(d, 1, 100)
		if err != nil {
			panic(err)
		}
		_, gapFeas := g.Feasible(0)
		t.Addf("two-cost GAP (Thm 6)", kind,
			fmt.Sprintf("makespan %d at budget %d", g.Target, g.Budget),
			gapFeas, gapFeas == (kind == "YES"))
	}
	return t
}

// e11Repeats is how many timed solves each E11 cell takes the median
// of.
const e11Repeats = 5

// E11 compares the two M-PARTITION search strategies: integer binary
// search and the paper's incremental threshold scan. (The naive
// materialized ladder is the tests' oracle in internal/core and is not
// timed here.) An untimed round of both on the first instance warms
// the process, and each time cell is the median of e11Repeats solves,
// so neither a cold first call nor one preempted run decides a
// ranking.
func E11() *stats.Table {
	t := stats.NewTable("n", "binary ms", "incremental ms", "binary makespan", "incremental makespan")
	modes := [...]core.SearchMode{core.BinarySearch, core.IncrementalScan}
	for i, n := range []int{100, 400, 1600} {
		in := workload.Generate(workload.Config{
			N: n, M: 8, MaxSize: 500, Sizes: workload.SizeUniform,
			Placement: workload.PlaceSkewed, Seed: 3,
		})
		k := n / 8
		if i == 0 {
			for _, mode := range modes {
				core.MPartition(context.Background(), in, k, mode, sink)
			}
		}
		var ms [len(modes)]float64
		var makespan [len(modes)]int64
		for m, mode := range modes {
			times := make([]float64, e11Repeats)
			for r := range times {
				t0 := time.Now()
				sol, _ := core.MPartition(context.Background(), in, k, mode, sink)
				times[r] = float64(time.Since(t0).Microseconds()) / 1000
				makespan[m] = sol.Makespan
			}
			ms[m] = stats.Summarize(times).P50
		}
		t.Addf(n, ms[0], ms[1], makespan[0], makespan[1])
	}
	return t
}

// E12 sweeps the move budget k — the tradeoff the problem statement is
// about — on a skewed instance, with the exact optimum as reference at
// small scale and the makespan relative to the packing lower bound at
// larger scale.
func E12() *stats.Table {
	t := stats.NewTable("n", "k", "mpartition makespan", "vs lower bound", "moves used", "exact")
	small := workload.Generate(workload.Config{
		N: 10, M: 3, MaxSize: 30, Placement: workload.PlaceOneHot,
		Sizes: workload.SizeUniform, Seed: 12,
	})
	for _, k := range []int{0, 1, 2, 3, 5, 8, 10} {
		sol, _ := core.MPartition(context.Background(), small, k, core.BinarySearch, sink)
		opt, err := exact.Solve(context.Background(), small, k, exact.Limits{})
		optStr := "-"
		if err == nil {
			optStr = fmt.Sprint(opt.Makespan)
		}
		t.Addf(small.N(), k, sol.Makespan,
			float64(sol.Makespan)/float64(small.LowerBound()), sol.Moves, optStr)
	}
	large := workload.Generate(workload.Config{
		N: 2000, M: 16, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 12,
	})
	for _, k := range []int{0, 10, 50, 200, 1000, 2000} {
		sol, _ := core.MPartition(context.Background(), large, k, core.BinarySearch, sink)
		t.Addf(large.N(), k, sol.Makespan,
			float64(sol.Makespan)/float64(large.LowerBound()), sol.Moves, "-")
	}
	return t
}

// E13 certifies quality at medium scale with the LP relaxation lower
// bound in place of the (unreachable) exact optimum.
func E13() *stats.Table {
	t := stats.NewTable("n", "k", "LP bound", "mpartition", "certified ratio", "greedy", "greedy ratio")
	for _, n := range []int{50, 100, 200} {
		in := workload.Generate(workload.Config{
			N: n, M: 6, MaxSize: 100, Sizes: workload.SizeZipf,
			Placement: workload.PlaceSkewed, Seed: 21,
		})
		k := n / 6
		lb, err := lpbound.Moves(in, k)
		if err != nil {
			panic(err)
		}
		mp, _ := core.MPartition(context.Background(), in, k, core.BinarySearch, sink)
		g := greedy.Rebalance(in, k, greedy.OrderLargestFirst, sink)
		t.Addf(n, k, lb, mp.Makespan, float64(mp.Makespan)/float64(lb),
			g.Makespan, float64(g.Makespan)/float64(lb))
	}
	return t
}

// E14 compares unlimited-move rebalancing against the classical
// identical-machine schedulers on the same job sets.
func E14() *stats.Table {
	t := stats.NewTable("workload", "lower bound", "mpartition k=n", "greedy k=n", "LPT", "MULTIFIT", "HS-PTAS(0.2)")
	for _, wl := range []workload.SizeDist{workload.SizeUniform, workload.SizeZipf, workload.SizeBimodal} {
		in := workload.Generate(workload.Config{
			N: 120, M: 8, MaxSize: 200, Sizes: wl,
			Placement: workload.PlaceOneHot, Seed: 4,
		})
		sizes := scheduling.FromInstance(in)
		mp, _ := core.MPartition(context.Background(), in, in.N(), core.BinarySearch, sink)
		g := greedy.Rebalance(in, in.N(), greedy.OrderLargestFirst, sink)
		_, lpt := scheduling.LPT(sizes, in.M)
		_, mf := scheduling.Multifit(sizes, in.M, 0)
		_, hs := scheduling.DualPTAS(sizes, in.M, 0.2)
		t.Addf(wl.String(), in.LowerBound(), mp.Makespan, g.Makespan, lpt, mf, hs)
	}
	return t
}

// E15 random-searches for the worst measured ratio of each algorithm
// against the exact optimum (the tightness probe).
func E15() *stats.Table {
	t := stats.NewTable("target", "trials", "worst ratio", "proven bound", "worst instance")
	for _, target := range []adversary.Target{
		adversary.TargetGreedy, adversary.TargetGreedyLPT, adversary.TargetMPartition,
	} {
		cfg := adversary.Config{Trials: 600, N: 8, M: 3, Seed: 2003}
		w, _ := adversary.Hunt(context.Background(), target, cfg)
		desc := "-"
		if w.Instance != nil {
			desc = fmt.Sprintf("%s k=%d", w.Instance, w.K)
		}
		t.Addf(target.String(), cfg.Trials, w.Ratio, adversary.Bound(target, cfg.M), desc)
	}
	return t
}
