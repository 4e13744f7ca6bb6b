// The dispatch core's request/result shapes and typed errors. The
// Request struct carries JSON tags because it doubles as the canonical
// body schema every transport speaks (the HTTP server and client alias
// it), but nothing in this package reads or writes JSON — transports
// own encoding, the core owns meaning.
package dispatch

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/instance"
)

// Typed errors the core returns; transports map them onto their wire's
// status vocabulary (the HTTP adapter: 429, 404, 400).
var (
	// ErrQueueFull reports an admission rejection: the bounded queue was
	// full when the request arrived. The request was never queued and is
	// safe to retry — against this core later, or another shard now.
	ErrQueueFull = errors.New("admission queue full")
	// ErrUnknownSolver re-exports the registry's sentinel so transports
	// can classify Validate and Result errors without importing
	// internal/engine.
	ErrUnknownSolver = engine.ErrUnknownSolver
	// ErrUnsupported re-exports the registry's capability-mismatch
	// sentinel.
	ErrUnsupported = engine.ErrUnsupported
)

// MaxProcessors bounds the processor count m of every request the core
// serves: a solve, peek or batch item, a session's create, and the
// proc_add deltas that grow a session. Solvers and sessions allocate
// per-processor state, so without a bound a body of a few bytes could
// claim any amount of memory.
const MaxProcessors = 1 << 16

// processorLimit rejects a processor count above MaxProcessors.
func processorLimit(m int) error {
	if m > MaxProcessors {
		return &BadRequestError{Msg: fmt.Sprintf("m = %d exceeds the limit of %d processors", m, MaxProcessors)}
	}
	return nil
}

// BadRequestError marks a request Validate rejected as malformed: an
// invalid instance or tuning parameters the solver does not consume.
// Transports map it to their invalid-argument status (HTTP 400).
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

// unknownSolverError is Validate's unknown-solver rejection: it keeps
// the serving layer's historical message while classifying as
// ErrUnknownSolver.
type unknownSolverError struct{ name string }

func (e *unknownSolverError) Error() string {
	return fmt.Sprintf("unknown solver %q (known: %s)", e.name, KnownSolvers())
}
func (e *unknownSolverError) Unwrap() error { return engine.ErrUnknownSolver }

// Request is one solve request in canonical decoded form — the body of
// POST /v1/solve, and the unit every transport hands to Core.Do. The
// instance embeds the same extended JSON that genwork writes and the
// CLI reads.
type Request struct {
	// Solver names a registered engine solver (see Catalog); sweep-kind
	// entries such as "frontier" are accepted and return Points instead
	// of an assignment.
	Solver string `json:"solver"`
	// Instance is the problem in the extended format (base fields
	// m/jobs/assign plus optional allowed/conflicts), exactly as written
	// by genwork.
	Instance instance.Extended `json:"instance"`
	// K is the move budget for k-capable solvers.
	K int `json:"k,omitempty"`
	// Budget is the relocation cost budget for budget-capable solvers.
	Budget int64 `json:"budget,omitempty"`
	// Eps is the approximation parameter; zero means the solver default.
	Eps float64 `json:"eps,omitempty"`
	// TimeoutMS requests a per-solve deadline in milliseconds. Zero
	// means the core's default; every request is clamped to the
	// configured maximum. The deadline covers queue wait plus solve.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Ks lists the move budgets for a sweep-kind solver. Empty means the
	// default doubling ladder 0, 1, 2, 4, … capped at the job count.
	Ks []int `json:"ks,omitempty"`
	// PeerFill is a routing hint, not part of the body: the base URL of
	// the shard that owned this request's key before a membership
	// change. On a local cache miss the flight asks that peer for the
	// finished solution before running the engine (requires Config.Fill).
	PeerFill string `json:"-"`
	// probe is the canonical key a transport's hit probe computed for
	// this request before it missed (TryCachedSolve); the cache
	// uses it instead of keying the request again.
	probe probedKey
}

// probedKey is a missed probe's key and the time the probe took, which
// Do counts as cache time. The zero value is no key.
type probedKey struct {
	can   cache.Canonical
	ns    int64
	keyed bool
}

// SweepPoint is one point of a sweep-kind solver's tradeoff curve.
type SweepPoint struct {
	K        int   `json:"k"`
	Makespan int64 `json:"makespan"`
	Moves    int   `json:"moves"`
}

// Result is the outcome of one dispatched request. Err is the solver-
// level outcome (nil on success); the phase timings are populated
// either way. Exactly one of Sol (solution-kind) or Points (Sweep
// true) is meaningful.
type Result struct {
	Sol    instance.Solution
	Points []SweepPoint
	Sweep  bool
	// Cache reports how the solution cache served this solve — "hit",
	// "miss", or "coalesced" — and "" when the request bypassed the
	// cache (sweeps, or caching disabled).
	Cache string
	// PeerFill reports the peer warm-up on a local miss with a PeerFill
	// target: "hit" (peer supplied the solution; no engine run) or
	// "miss" (peer didn't have it; engine ran). "" when no peer was
	// consulted.
	PeerFill string
	Err      error
	// QueueNS/CacheNS/SolveNS decompose the server-side latency:
	// admission-queue wait, cache-layer time excluding engine compute,
	// engine compute.
	QueueNS, CacheNS, SolveNS int64
}

// Validate vets a decoded request against the registry, mirroring the
// CLI's flag validation: nil, or one of the typed errors — a
// *BadRequestError (invalid instance, unconsumed tuning parameters,
// ks on a non-sweep, m above MaxProcessors), or an
// ErrUnknownSolver-classified error.
func (c *Core) Validate(req *Request) error {
	if err := processorLimit(req.Instance.M); err != nil {
		c.cfg.Obs.Count("server.bad_requests", 1)
		return err
	}
	if err := req.Instance.Validate(); err != nil {
		c.cfg.Obs.Count("server.bad_requests", 1)
		return &BadRequestError{Msg: fmt.Sprintf("invalid instance: %v", err)}
	}
	spec, ok := engine.Lookup(req.Solver)
	if !ok {
		c.cfg.Obs.Count("server.unknown_solver", 1)
		return &unknownSolverError{name: req.Solver}
	}
	// Reject parameters the solver does not consume: a nonzero field
	// counts as explicitly set.
	set := map[string]bool{"k": req.K != 0, "budget": req.Budget != 0, "eps": req.Eps != 0}
	if err := spec.ValidateFlags(set); err != nil {
		c.cfg.Obs.Count("server.bad_requests", 1)
		return &BadRequestError{Msg: err.Error()}
	}
	if len(req.Ks) > 0 && spec.Kind != engine.KindSweep {
		c.cfg.Obs.Count("server.bad_requests", 1)
		return &BadRequestError{Msg: fmt.Sprintf("solver %q is not a sweep; ks applies only to sweep-kind solvers", req.Solver)}
	}
	return nil
}

// KnownSolvers renders the registry's solver names for error messages.
func KnownSolvers() string { return strings.Join(engine.Names(), ", ") }

// SolverInfo is one solver-catalog entry — the registry spec flattened
// into a wire-friendly shape (the GET /v1/solvers payload).
type SolverInfo struct {
	Name          string   `json:"name"`
	Summary       string   `json:"summary"`
	Guarantee     string   `json:"guarantee"`
	Kind          string   `json:"kind"` // "solution" or "sweep"
	Flags         []string `json:"flags,omitempty"`
	Exponential   bool     `json:"exponential,omitempty"`
	NeedsExtended bool     `json:"needs_extended,omitempty"`
}

// Catalog renders the engine registry as the solver catalog.
func Catalog() []SolverInfo {
	specs := engine.Specs()
	infos := make([]SolverInfo, len(specs))
	for i, s := range specs {
		kind := "solution"
		if s.Kind == engine.KindSweep {
			kind = "sweep"
		}
		infos[i] = SolverInfo{
			Name:          s.Name,
			Summary:       s.Summary,
			Guarantee:     s.Guarantee,
			Kind:          kind,
			Flags:         s.FlagNames(),
			Exponential:   s.Caps.Exponential,
			NeedsExtended: s.Caps.NeedsExtended,
		}
	}
	return infos
}
