// Package engine is the unified solve surface of the repository: one
// SolveFunc signature, a registry of named solvers with capability
// metadata, a typed error model, and real context propagation into
// every long-running inner loop.
//
// Every algorithm the repository implements — the paper's GREEDY,
// M-PARTITION, budget PARTITION, PTAS and exact solvers, the GAP
// baseline, the k = n scheduling baselines, and the §5 constrained and
// conflict variants — registers itself here under the same name the CLI
// uses. The CLI and the daemon dispatch every solve through the
// registry, so flag validation, usage text, documentation tables and
// dispatch all derive from a single source of truth and cannot drift
// apart. The simulator, the experiment suite and the adversary hunt
// dispatch through it when a caller names a solver, and call the
// algorithm packages directly for the variants the registry does not
// name (a greedy placement order, an M-PARTITION search mode).
//
// Cancellation contract: Solve threads its ctx into the solver's inner
// loops (branch-and-bound nodes, PTAS guess ladder and DP layers,
// PARTITION bisection probes), so a deadline or cancel interrupts work
// promptly and surfaces as ctx.Err(). See DESIGN.md §8.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/instance"
	"repro/internal/obs"
)

// Typed error model shared by every registered solver.
var (
	// ErrInfeasible is returned when no solution satisfies the
	// constraints (re-exported from the instance package so engine
	// consumers need only one error vocabulary).
	ErrInfeasible = instance.ErrInfeasible
	// ErrUnknownSolver is wrapped by Solve and UnknownSolver when the
	// requested name is not registered.
	ErrUnknownSolver = errors.New("engine: unknown solver")
	// ErrUnsupported is returned when a registered entry cannot serve
	// the request — e.g. asking engine.Solve for a sweep-kind entry, or
	// a solver that needs extended instance data it did not receive.
	ErrUnsupported = errors.New("engine: operation not supported by this solver")
)

// Params is the uniform parameter bundle every solver accepts. Solvers
// consume only the fields their capability metadata advertises and
// ignore the rest; CLI-level validation rejects explicitly-set flags a
// solver does not consume.
type Params struct {
	// K is the move budget (capability K).
	K int
	// Budget is the relocation cost budget (capability Budget).
	Budget int64
	// Eps is the approximation parameter (capability Eps); zero means
	// the solver's documented default.
	Eps float64
	// Workers mirrors capability Workers. No solution-kind solver reads
	// it: every solve runs on its caller's goroutine. Only the frontier
	// sweep is concurrent, through its own FrontierOptions.Workers.
	Workers int
	// Obs threads an observability sink through the run; nil disables
	// instrumentation.
	Obs *obs.Sink
	// Allowed carries per-job allowed machine sets for solvers with
	// NeedsExtended (nil entry = unrestricted).
	Allowed [][]int
	// Conflicts carries job pairs that may not share a machine for
	// solvers with NeedsExtended.
	Conflicts [][2]int
}

// Caps is a solver's capability metadata: which Params fields it
// consumes and which structural properties it has. CLI flag validation,
// usage text and the README tables derive from it.
type Caps struct {
	// K, Budget, Eps mirror the Params fields of the same name.
	K, Budget, Eps bool
	// Workers marks the -workers flag as consumed. Only the frontier
	// sweep sets it: its FrontierOptions.Workers is the one concurrent
	// surface, and no solution-kind solver reads Params.Workers.
	Workers bool
	// NeedsExtended marks solvers that read Params.Allowed or
	// Params.Conflicts (the §5 extended instance format).
	NeedsExtended bool
	// Exponential marks solvers with exponential worst-case running
	// time; callers should bound them with a context deadline.
	Exponential bool
}

// Accepts reports whether the capability set consumes the named CLI
// tuning flag ("k", "budget", "eps", "workers").
func (c Caps) Accepts(flag string) bool {
	switch flag {
	case "k":
		return c.K
	case "budget":
		return c.Budget
	case "eps":
		return c.Eps
	case "workers":
		return c.Workers
	}
	return false
}

// Kind classifies a registry entry.
type Kind int

const (
	// KindSolution entries produce a single instance.Solution via Solve.
	KindSolution Kind = iota
	// KindSweep entries produce a tradeoff curve (the frontier); they
	// carry capability metadata for flag validation but must be run via
	// Sweep, not Solve.
	KindSweep
)

// SolveFunc is the uniform solve signature every registered algorithm
// implements: solvers must honor ctx cancellation in their long-running
// inner loops and return ctx.Err() when it fires.
type SolveFunc func(ctx context.Context, in *instance.Instance, p Params) (instance.Solution, error)

// Spec is one registry entry: a named solver with capability metadata.
type Spec struct {
	// Name is the registry key — also the CLI -alg value.
	Name string
	// Summary is a one-line description for -list and usage text.
	Summary string
	// Guarantee is the approximation bound ("1.5", "1+eps", "opt", …).
	Guarantee string
	// Kind classifies the entry (single solution vs sweep).
	Kind Kind
	// Caps is the capability metadata.
	Caps Caps
	// Run is the solver implementation (nil only for KindSweep entries).
	Run SolveFunc
}

// Solve runs the spec's solver. When ctx carries a trace
// span (the serving pipeline's request tracing, DESIGN.md §11), the
// solver runs inside a "solve" child span tagged with its name; with no
// span in ctx this is a single context lookup and no allocation.
func (s Spec) Solve(ctx context.Context, in *instance.Instance, p Params) (instance.Solution, error) {
	if s.Kind != KindSolution || s.Run == nil {
		return instance.Solution{}, fmt.Errorf("%w: %q is a sweep, not a single-solution solver", ErrUnsupported, s.Name)
	}
	if err := ctx.Err(); err != nil {
		return instance.Solution{}, err
	}
	ctx, sp := obs.StartSpan(ctx, "solve")
	if sp == nil {
		return s.Run(ctx, in, p)
	}
	sp.SetAttr(obs.String("solver", s.Name), obs.Int("n", int64(in.N())), obs.Int("m", int64(in.M)))
	sol, err := s.Run(ctx, in, p)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(obs.Int("makespan", sol.Makespan), obs.Int("moves", int64(sol.Moves)))
	}
	sp.End()
	return sol, err
}

var (
	mu       sync.RWMutex
	registry = map[string]Spec{}
)

// Register adds a solver spec to the registry; it panics on a duplicate
// or malformed spec (registration is init-time wiring, not user input).
func Register(s Spec) {
	if s.Name == "" {
		panic("engine: Register with empty name")
	}
	if s.Kind == KindSolution && s.Run == nil {
		panic("engine: Register " + s.Name + " without a Run function")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("engine: duplicate solver " + s.Name)
	}
	registry[s.Name] = s
}

// RegisterTest registers s for the duration of one test: t.Cleanup
// removes it again, so a test that brings its own solver can repeat
// (go test -count=N) in one process. Tests that use it must not run
// in parallel with others registering the same name.
func RegisterTest(t interface{ Cleanup(func()) }, s Spec) {
	Register(s)
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		delete(registry, s.Name)
	})
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns every registered solver name, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Specs returns every registered spec, sorted by name.
func Specs() []Spec {
	names := Names()
	specs := make([]Spec, len(names))
	for i, n := range names {
		specs[i], _ = Lookup(n)
	}
	return specs
}

// Solve dispatches to the named solver with a cancellable context. The
// error is ErrUnknownSolver (wrapped) for an unregistered name,
// ErrUnsupported (wrapped) for a sweep entry, a ctx error when the
// context fires mid-solve, or the solver's own typed error.
func Solve(ctx context.Context, name string, in *instance.Instance, p Params) (instance.Solution, error) {
	spec, ok := Lookup(name)
	if !ok {
		return instance.Solution{}, UnknownSolver(name)
	}
	return spec.Solve(ctx, in, p)
}

// UnknownSolver is the ErrUnknownSolver-wrapped error for a name that
// is not registered; its text lists the registered names.
func UnknownSolver(name string) error {
	return fmt.Errorf("%w: %q (known: %s)", ErrUnknownSolver, name, strings.Join(Names(), ", "))
}

// TuningFlags is the ordered universe of per-algorithm CLI tuning
// flags; capability metadata says which of them each solver consumes.
var TuningFlags = []struct{ Name, Meaning string }{
	{"k", "move budget"},
	{"budget", "relocation cost budget"},
	{"eps", "approximation parameter"},
	{"workers", "worker pool size (1 = sequential; results identical at every value)"},
}

// FlagNames returns the tuning flags the spec consumes, in TuningFlags
// order.
func (s Spec) FlagNames() []string {
	var names []string
	for _, f := range TuningFlags {
		if s.Caps.Accepts(f.Name) {
			names = append(names, f.Name)
		}
	}
	return names
}

// ValidateFlags rejects explicitly-set tuning flags the solver does not
// consume, so a mistyped combination (e.g. -alg greedy -budget 500)
// fails loudly instead of silently ignoring the budget. set holds the
// names of the flags the user explicitly set.
func (s Spec) ValidateFlags(set map[string]bool) error {
	var bad []string
	for _, f := range TuningFlags {
		if set[f.Name] && !s.Caps.Accepts(f.Name) {
			bad = append(bad, "-"+f.Name)
		}
	}
	if len(bad) > 0 {
		hint := "takes no tuning flags"
		if takes := s.FlagNames(); len(takes) > 0 {
			hint = "takes -" + strings.Join(takes, ", -")
		}
		return fmt.Errorf("-alg %s ignores %s (%s %s)", s.Name, strings.Join(bad, ", "), s.Name, hint)
	}
	return nil
}

// ConsumersOf returns, sorted, the names of the solvers consuming the
// given tuning flag.
func ConsumersOf(flag string) []string {
	var names []string
	for _, s := range Specs() {
		if s.Caps.Accepts(flag) {
			names = append(names, s.Name)
		}
	}
	return names
}

// ListText renders the registry as the fixed-width table printed by
// `rebalance -list`; the golden test in cmd/rebalance pins it, so the
// registry and the CLI surface cannot drift apart.
func ListText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-22s %-10s %s\n", "ALGORITHM", "FLAGS", "BOUND", "DESCRIPTION")
	for _, s := range Specs() {
		flags := "-"
		if f := s.FlagNames(); len(f) > 0 {
			flags = "-" + strings.Join(f, " -")
		}
		var notes []string
		if s.Caps.Exponential {
			notes = append(notes, "exponential: bound with -timeout")
		}
		if s.Caps.NeedsExtended {
			notes = append(notes, "extended instance format")
		}
		summary := s.Summary
		if len(notes) > 0 {
			summary += " (" + strings.Join(notes, "; ") + ")"
		}
		fmt.Fprintf(&b, "%-14s %-22s %-10s %s\n", s.Name, flags, s.Guarantee, summary)
	}
	return b.String()
}

// MarkdownFlagTable renders the README's tuning-flag table from the
// registry; a test asserts README.md embeds it verbatim.
func MarkdownFlagTable() string {
	var b strings.Builder
	b.WriteString("| flag | consumed by | meaning |\n")
	b.WriteString("|------|-------------|---------|\n")
	for _, f := range TuningFlags {
		fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", f.Name, strings.Join(ConsumersOf(f.Name), ", "), f.Meaning)
	}
	b.WriteString("| `-timeout` | every algorithm | wall-clock limit; the run is cancelled mid-solve and exits with `context.DeadlineExceeded` |\n")
	return b.String()
}

// MarkdownAlgorithmTable renders the README's algorithm table from the
// registry; a test asserts README.md embeds it verbatim.
func MarkdownAlgorithmTable() string {
	var b strings.Builder
	b.WriteString("| `-alg` | flags | bound | description |\n")
	b.WriteString("|--------|-------|-------|-------------|\n")
	for _, s := range Specs() {
		flags := "—"
		if f := s.FlagNames(); len(f) > 0 {
			flags = "`-" + strings.Join(f, "` `-") + "`"
		}
		var notes []string
		if s.Caps.Exponential {
			notes = append(notes, "exponential")
		}
		if s.Caps.NeedsExtended {
			notes = append(notes, "extended format")
		}
		summary := s.Summary
		if len(notes) > 0 {
			summary += " (" + strings.Join(notes, ", ") + ")"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", s.Name, flags, s.Guarantee, summary)
	}
	return b.String()
}

// UsageText renders the per-algorithm flag summary appended to the CLI
// usage output — generated from the same capability metadata as
// validation, so the usage can never promise a flag dispatch rejects.
func UsageText() string {
	var b strings.Builder
	b.WriteString("algorithms (run -list for details):\n")
	for _, s := range Specs() {
		flags := "no tuning flags"
		if f := s.FlagNames(); len(f) > 0 {
			flags = "-" + strings.Join(f, ", -")
		}
		fmt.Fprintf(&b, "  %-14s %s\n", s.Name, flags)
	}
	return b.String()
}
