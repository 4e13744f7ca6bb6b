package rebalance

import (
	"context"

	"repro/internal/engine"
)

// The unified solve surface: every algorithm in the repository is a
// named entry in the internal/engine registry, carrying capability
// metadata (which tuning parameters it consumes, whether it needs the
// extended instance format, whether it is exponential) and honoring
// context cancellation in its long-running inner loops. The CLI and the
// daemon dispatch every solve through it, and the simulator, the
// experiment suite and the adversary hunt do whenever a caller names a
// solver. The paper-level functions in rebalance.go call the algorithm
// packages directly, with the parameters the registry does not expose
// (a greedy placement order, an M-PARTITION search mode). Pass a sink
// as SolverParams.Obs to instrument any of them. See DESIGN.md §8.

type (
	// SolverParams is the uniform parameter bundle passed to Solve;
	// solvers consume only the fields their capabilities advertise.
	SolverParams = engine.Params
	// SolverCaps is a solver's capability metadata.
	SolverCaps = engine.Caps
	// SolverSpec is one registry entry: a named solver plus metadata.
	SolverSpec = engine.Spec
)

// Engine error model, re-exported.
var (
	// ErrUnknownSolver is returned (wrapped) for an unregistered name.
	ErrUnknownSolver = engine.ErrUnknownSolver
	// ErrUnsupportedSolver is returned (wrapped) when a registry entry
	// cannot serve the request, e.g. running the frontier sweep through
	// the single-solution Solve.
	ErrUnsupportedSolver = engine.ErrUnsupported
)

// Solve runs the named solver under a cancellable context. A deadline
// or cancel interrupts branch-and-bound nodes, PTAS DP layers and
// PARTITION bisection probes promptly and surfaces as ctx.Err().
func Solve(ctx context.Context, name string, in *Instance, p SolverParams) (Solution, error) {
	return engine.Solve(ctx, name, in, p)
}

// Solvers returns every registered solver spec, sorted by name.
func Solvers() []SolverSpec {
	return engine.Specs()
}
