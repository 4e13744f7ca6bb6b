// Package session is the stateful face of the rebalancer (ROADMAP item
// 2, DESIGN.md §15): a live job-to-processor assignment that absorbs
// typed deltas — job arrives / departs / resizes, processor added /
// drained — and re-solves after each one with warm solver state
// (core.Warm: the threshold-ladder / IncrementalScan machinery kept
// across deltas) instead of a cold full solve.
//
// Churn between consecutive solutions is bounded by the same movemin
// machinery the one-shot solvers use: budget mode runs M-PARTITION
// with at most MoveBudget migrations per delta (makespan ≤ 1.5·OPT(k),
// Lemma 4), target mode runs one PARTITION probe at a fixed target
// (movemin.Bicriteria semantics: makespan ≤ 1.5·target with optimal
// move count whenever the target is reachable).
//
// Correctness rests on an exact equivalence, not an approximation: the
// warm path produces byte-identical solutions to a cold full solve on
// the materialized snapshot (core.Warm's contract), and Config.Cold
// switches a session onto that cold path so the differential harness
// and benchmarks can hold the two in lockstep after every delta.
//
// A Session is confined to a single goroutine; internal/dispatch owns
// the per-session serialization for concurrent transports.
package session

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/movemin"
	"repro/internal/obs"
)

// Typed delta rejections. Every one of them leaves the session state
// untouched — validation happens before any mutation.
var (
	// ErrUnknownJob reports a depart/resize naming a job the session
	// does not hold.
	ErrUnknownJob = errors.New("session: unknown job id")
	// ErrDuplicateJob reports an arrival reusing a live job id.
	ErrDuplicateJob = errors.New("session: duplicate job id")
	// ErrBadDelta reports a structurally invalid delta: unknown op,
	// non-positive size, negative cost, processor out of range.
	ErrBadDelta = errors.New("session: invalid delta")
	// ErrInfeasible marks a delta no assignment can satisfy — draining
	// the last processor. It wraps instance.ErrInfeasible so transports
	// classify it like any other infeasibility (HTTP 422).
	ErrInfeasible = fmt.Errorf("session: infeasible delta: %w", instance.ErrInfeasible)
)

// Op is the delta kind.
type Op uint8

const (
	// OpArrive adds job Job with Size and Cost on processor Proc
	// (-1 places it on the least-loaded processor, Graham-style).
	OpArrive Op = iota + 1
	// OpDepart removes job Job.
	OpDepart
	// OpResize sets job Job's size to Size.
	OpResize
	// OpProcAdd grows the farm by one processor.
	OpProcAdd
	// OpProcDrain empties processor Proc (forced migrations, largest
	// job first, each to the least-loaded survivor) and removes it;
	// processors above it renumber down by one.
	OpProcDrain
)

// String names the op for errors and wire mapping.
func (o Op) String() string {
	switch o {
	case OpArrive:
		return "arrive"
	case OpDepart:
		return "depart"
	case OpResize:
		return "resize"
	case OpProcAdd:
		return "proc_add"
	case OpProcDrain:
		return "proc_drain"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Delta is one typed state change.
type Delta struct {
	Op   Op
	Job  int   // caller-assigned job id (arrive/depart/resize)
	Size int64 // arrive/resize
	Cost int64 // arrive
	Proc int   // arrive placement (-1 = least-loaded); proc_drain target
}

// Move is one migration: job Job (caller id) from processor From to To.
// For drain-forced moves, From is the drained processor in pre-drain
// numbering and To is already renumbered to the post-drain farm.
type Move struct {
	Job, From, To int
}

// Outcome describes the session state after one applied delta.
type Outcome struct {
	// Rev is the state revision (one per applied delta or explicit
	// rebalance that moved anything).
	Rev uint64
	// N and M are the live job and processor counts.
	N, M int
	// Makespan is the maximum processor load after the delta and any
	// rebalance.
	Makespan int64
	// Forced lists migrations a processor drain forced.
	Forced []Move
	// Moves lists the rebalance migrations (at most MoveBudget in
	// budget mode; move-count-optimal for the target in target mode).
	Moves []Move
	// Rebalanced reports whether a rebalance solve ran (auto sessions
	// with live jobs and a usable budget or feasible target).
	Rebalanced bool
}

// Config shapes a session. Exactly one of M (empty farm) or Initial
// (seeded; cloned, caller ids = job indices) must be set.
type Config struct {
	M       int
	Initial *instance.Instance
	// MoveBudget is the per-rebalance move budget k (budget mode; used
	// when Target == 0). 0 disables rebalancing.
	MoveBudget int
	// Target, when > 0, switches to bicriteria target mode: each
	// rebalance is one PARTITION probe at Target, skipped when the
	// target is unreachable for the current state.
	Target int64
	// AutoRebalance re-solves after every applied delta; otherwise
	// rebalancing happens only on explicit Rebalance calls.
	AutoRebalance bool
	// Cold disables warm solver reuse: every rebalance materializes a
	// snapshot and runs the cold full solve. Results are identical by
	// construction (core.Warm's contract) — this is the measurement
	// baseline for the session benchmarks and the oracle arm of the
	// differential harness, not a production mode.
	Cold bool
	// Obs is threaded into the solver (core.* metrics); nil disables.
	Obs *obs.Sink
}

// Session holds a live assignment plus the warm solver state that
// makes per-delta re-solves cheaper than cold ones.
type Session struct {
	cfg        Config
	warm       *core.Warm
	ids        []int       // slot (internal index) → caller job id
	slot       map[int]int // caller job id → slot
	rev        uint64
	totalMoves int64
}

// New builds a session.
func New(cfg Config) (*Session, error) {
	if cfg.MoveBudget < 0 {
		cfg.MoveBudget = 0
	}
	if cfg.Target < 0 {
		return nil, fmt.Errorf("%w: target %d, want >= 0", ErrBadDelta, cfg.Target)
	}
	in := cfg.Initial
	if in == nil {
		if cfg.M <= 0 {
			return nil, fmt.Errorf("%w: m = %d, want > 0", ErrBadDelta, cfg.M)
		}
		var err error
		in, err = instance.New(cfg.M, nil, nil, nil)
		if err != nil {
			return nil, err
		}
	}
	w, err := core.NewWarm(in, cfg.Obs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	s := &Session{cfg: cfg, warm: w, slot: make(map[int]int, w.N())}
	s.ids = make([]int, w.N())
	for j := range s.ids {
		s.ids[j] = j
		s.slot[j] = j
	}
	return s, nil
}

// Apply validates and applies one delta, then (for auto sessions)
// re-solves with the warm state. Typed rejections (ErrUnknownJob,
// ErrDuplicateJob, ErrBadDelta, ErrInfeasible) leave the state
// untouched. A context error can only arrive from the rebalance solve:
// the structural change has been applied, the rebalance has not — the
// state is current but unrebalanced.
func (s *Session) Apply(ctx context.Context, d Delta) (Outcome, error) {
	var forced []Move
	switch d.Op {
	case OpArrive:
		if d.Size <= 0 {
			return Outcome{}, fmt.Errorf("%w: job %d arrives with size %d, want > 0", ErrBadDelta, d.Job, d.Size)
		}
		if d.Cost < 0 {
			return Outcome{}, fmt.Errorf("%w: job %d arrives with cost %d, want >= 0", ErrBadDelta, d.Job, d.Cost)
		}
		if _, dup := s.slot[d.Job]; dup {
			return Outcome{}, fmt.Errorf("%w: %d", ErrDuplicateJob, d.Job)
		}
		proc := d.Proc
		if proc == -1 {
			proc = s.warm.MinLoadProc(-1)
		}
		if proc < 0 || proc >= s.warm.M() {
			return Outcome{}, fmt.Errorf("%w: job %d placed on processor %d, want [0,%d)", ErrBadDelta, d.Job, d.Proc, s.warm.M())
		}
		slot := s.warm.Add(d.Size, d.Cost, proc)
		s.ids = append(s.ids, d.Job)
		s.slot[d.Job] = slot
	case OpDepart:
		slot, ok := s.slot[d.Job]
		if !ok {
			return Outcome{}, fmt.Errorf("%w: %d", ErrUnknownJob, d.Job)
		}
		s.removeSlot(slot, d.Job)
	case OpResize:
		slot, ok := s.slot[d.Job]
		if !ok {
			return Outcome{}, fmt.Errorf("%w: %d", ErrUnknownJob, d.Job)
		}
		if d.Size <= 0 {
			return Outcome{}, fmt.Errorf("%w: job %d resized to %d, want > 0", ErrBadDelta, d.Job, d.Size)
		}
		s.warm.Resize(slot, d.Size)
	case OpProcAdd:
		s.warm.AddProc()
	case OpProcDrain:
		if d.Proc < 0 || d.Proc >= s.warm.M() {
			return Outcome{}, fmt.Errorf("%w: drain of processor %d, want [0,%d)", ErrBadDelta, d.Proc, s.warm.M())
		}
		if s.warm.M() == 1 {
			return Outcome{}, fmt.Errorf("%w: draining the last processor", ErrInfeasible)
		}
		forced = s.drainProc(d.Proc)
	default:
		return Outcome{}, fmt.Errorf("%w: unknown op %d", ErrBadDelta, d.Op)
	}
	s.rev++
	out := Outcome{Forced: forced}
	if s.cfg.AutoRebalance {
		moves, ran, err := s.rebalance(ctx, s.cfg.MoveBudget, s.cfg.Target)
		if err != nil {
			return Outcome{}, err
		}
		out.Moves, out.Rebalanced = moves, ran
	}
	s.fill(&out)
	return out, nil
}

// Rebalance runs one explicit budget-mode rebalance with move budget k
// (the entry point of rebalance.Balancer, and of sessions that do not
// auto-rebalance) and returns the applied migrations.
func (s *Session) Rebalance(ctx context.Context, k int) ([]Move, error) {
	moves, _, err := s.rebalance(ctx, k, 0)
	if len(moves) > 0 {
		s.rev++
	}
	return moves, err
}

// rebalance solves the current state (warm or cold per config, budget
// or target mode per arguments) and applies the resulting migrations.
func (s *Session) rebalance(ctx context.Context, k int, target int64) ([]Move, bool, error) {
	if s.warm.N() == 0 || (target <= 0 && k <= 0) {
		return nil, false, nil
	}
	var sol instance.Solution
	feasible := true
	if s.cfg.Cold {
		snap := s.warm.Snapshot()
		if target > 0 {
			sol, _, feasible = movemin.Bicriteria(snap, target)
		} else {
			var err error
			sol, err = core.MPartition(ctx, snap, k, core.IncrementalScan, s.cfg.Obs)
			if err != nil {
				return nil, false, err
			}
		}
	} else {
		if target > 0 {
			r := s.warm.Probe(target)
			sol, feasible = r.Solution, r.Feasible
		} else {
			var err error
			sol, err = s.warm.Solve(ctx, k)
			if err != nil {
				return nil, false, err
			}
		}
	}
	if !feasible {
		return nil, false, nil
	}
	var moves []Move
	for j, p := range sol.Assign {
		if from := s.warm.AssignOf(j); p != from {
			moves = append(moves, Move{Job: s.ids[j], From: from, To: p})
			s.warm.Move(j, p)
		}
	}
	s.totalMoves += int64(len(moves))
	return moves, true, nil
}

// drainProc migrates every job off p (largest first, each to the
// least-loaded survivor) and removes the processor. Returned moves
// carry post-drain To numbering.
func (s *Session) drainProc(p int) []Move {
	var moves []Move
	for row := s.warm.Row(p); len(row) > 0; row = s.warm.Row(p) {
		j := int(row[0])
		to := s.warm.MinLoadProc(p)
		s.warm.Move(j, to)
		if to > p {
			to--
		}
		moves = append(moves, Move{Job: s.ids[j], From: p, To: to})
	}
	s.warm.RemoveProc(p)
	s.totalMoves += int64(len(moves))
	return moves
}

// removeSlot deletes the job in slot, mirroring core.Warm's
// swap-remove: the job in the last slot takes its place.
func (s *Session) removeSlot(slot int, id int) {
	s.warm.Remove(slot)
	last := len(s.ids) - 1
	if slot != last {
		moved := s.ids[last]
		s.ids[slot] = moved
		s.slot[moved] = slot
	}
	s.ids = s.ids[:last]
	delete(s.slot, id)
}

// fill stamps the current state summary into out.
func (s *Session) fill(out *Outcome) {
	out.Rev = s.rev
	out.N = s.warm.N()
	out.M = s.warm.M()
	out.Makespan = s.warm.Makespan()
}

// Len returns the live job count.
func (s *Session) Len() int { return s.warm.N() }

// M returns the live processor count.
func (s *Session) M() int { return s.warm.M() }

// Rev returns the state revision.
func (s *Session) Rev() uint64 { return s.rev }

// TotalMoves returns the cumulative migrations (forced + rebalance)
// applied over the session's lifetime.
func (s *Session) TotalMoves() int64 { return s.totalMoves }

// Makespan returns the current maximum processor load.
func (s *Session) Makespan() int64 { return s.warm.Makespan() }

// LowerBound returns the packing lower bound of the live state.
func (s *Session) LowerBound() int64 {
	if s.warm.N() == 0 {
		return 0
	}
	return s.warm.LowerBound()
}

// Loads returns a copy of the per-processor loads.
func (s *Session) Loads() []int64 { return s.warm.Loads(nil) }

// ProcOf returns the processor currently hosting the job.
func (s *Session) ProcOf(id int) (int, bool) {
	slot, ok := s.slot[id]
	if !ok {
		return 0, false
	}
	return s.warm.AssignOf(slot), true
}

// Size returns the job's current size.
func (s *Session) Size(id int) (int64, bool) {
	slot, ok := s.slot[id]
	if !ok {
		return 0, false
	}
	return s.warm.JobSize(slot), true
}

// Snapshot materializes the current state as an Instance (jobs in
// internal slot order — the order the warm/cold equivalence is stated
// against) plus the slot→caller-id mapping.
func (s *Session) Snapshot() (*instance.Instance, []int) {
	return s.warm.Snapshot(), append([]int(nil), s.ids...)
}
