package session

import (
	"context"
	"errors"
	"testing"

	"repro/internal/instance"
)

func mustApply(t *testing.T, s *Session, d Delta) Outcome {
	t.Helper()
	out, err := s.Apply(context.Background(), d)
	if err != nil {
		t.Fatalf("apply %s job %d: %v", d.Op, d.Job, err)
	}
	return out
}

func TestSessionLifecycle(t *testing.T) {
	s, err := New(Config{M: 2, MoveBudget: 4, AutoRebalance: true})
	if err != nil {
		t.Fatal(err)
	}
	out := mustApply(t, s, Delta{Op: OpArrive, Job: 100, Size: 10, Proc: 0})
	if out.Rev != 1 || out.N != 1 || out.M != 2 || out.Makespan != 10 {
		t.Fatalf("after first arrival: %+v", out)
	}
	// Least-loaded placement: proc 0 holds 10, so -1 goes to proc 1.
	mustApply(t, s, Delta{Op: OpArrive, Job: 101, Size: 4, Proc: -1})
	if p, ok := s.ProcOf(101); !ok || p != 1 {
		t.Fatalf("least-loaded placement: proc %d ok %v", p, ok)
	}
	out = mustApply(t, s, Delta{Op: OpResize, Job: 101, Size: 25})
	if out.Makespan != 25 {
		t.Fatalf("resize makespan %d", out.Makespan)
	}
	if sz, ok := s.Size(101); !ok || sz != 25 {
		t.Fatalf("size after resize: %d ok %v", sz, ok)
	}
	out = mustApply(t, s, Delta{Op: OpDepart, Job: 100})
	if out.N != 1 || s.Len() != 1 {
		t.Fatalf("after depart: %+v", out)
	}
	if _, ok := s.ProcOf(100); ok {
		t.Fatal("departed job still resolvable")
	}
	out = mustApply(t, s, Delta{Op: OpProcAdd})
	if out.M != 3 || s.M() != 3 {
		t.Fatalf("after proc add: %+v", out)
	}
}

func TestSessionSeededInitial(t *testing.T) {
	in := instance.MustNew(2, []int64{10, 20, 30}, nil, []int{0, 1, 0})
	s, err := New(Config{Initial: in})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.M() != 2 || s.Makespan() != 40 {
		t.Fatalf("seeded state: n=%d m=%d makespan=%d", s.Len(), s.M(), s.Makespan())
	}
	// Seed ids are the job indices.
	for id := 0; id < 3; id++ {
		if _, ok := s.ProcOf(id); !ok {
			t.Fatalf("seed id %d unresolvable", id)
		}
	}
	// The seed instance was cloned, not captured.
	mustApply(t, s, Delta{Op: OpDepart, Job: 0})
	if in.N() != 3 {
		t.Fatal("session mutated the caller's instance")
	}
}

func TestSessionTypedErrors(t *testing.T) {
	s, err := New(Config{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, Delta{Op: OpArrive, Job: 7, Size: 5})
	cases := []struct {
		name string
		d    Delta
		want error
	}{
		{"duplicate arrive", Delta{Op: OpArrive, Job: 7, Size: 5}, ErrDuplicateJob},
		{"zero size arrive", Delta{Op: OpArrive, Job: 8, Size: 0}, ErrBadDelta},
		{"negative cost arrive", Delta{Op: OpArrive, Job: 8, Size: 5, Cost: -1}, ErrBadDelta},
		{"bad proc arrive", Delta{Op: OpArrive, Job: 8, Size: 5, Proc: 9}, ErrBadDelta},
		{"unknown depart", Delta{Op: OpDepart, Job: 99}, ErrUnknownJob},
		{"unknown resize", Delta{Op: OpResize, Job: 99, Size: 5}, ErrUnknownJob},
		{"zero resize", Delta{Op: OpResize, Job: 7, Size: 0}, ErrBadDelta},
		{"bad drain proc", Delta{Op: OpProcDrain, Proc: 5}, ErrBadDelta},
		{"unknown op", Delta{Op: Op(99)}, ErrBadDelta},
	}
	for _, tc := range cases {
		rev := s.Rev()
		if _, err := s.Apply(context.Background(), tc.d); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if s.Rev() != rev || s.Len() != 1 || s.M() != 2 {
			t.Errorf("%s: rejection mutated state", tc.name)
		}
	}
}

func TestSessionDrainLastProcInfeasible(t *testing.T) {
	s, err := New(Config{M: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, Delta{Op: OpArrive, Job: 1, Size: 5})
	_, err = s.Apply(context.Background(), Delta{Op: OpProcDrain, Proc: 0})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if !errors.Is(err, instance.ErrInfeasible) {
		t.Fatal("ErrInfeasible must wrap instance.ErrInfeasible for transport mapping")
	}
	if s.M() != 1 || s.Len() != 1 {
		t.Fatal("infeasible drain mutated state")
	}
}

func TestSessionDrainForcedMoves(t *testing.T) {
	// Three processors; drain the middle one. Forced moves must carry
	// pre-drain From and post-drain To numbering.
	in := instance.MustNew(3, []int64{10, 8, 2}, nil, []int{1, 1, 2})
	s, err := New(Config{Initial: in})
	if err != nil {
		t.Fatal(err)
	}
	out := mustApply(t, s, Delta{Op: OpProcDrain, Proc: 1})
	if out.M != 2 || s.M() != 2 {
		t.Fatalf("m = %d after drain", out.M)
	}
	if len(out.Forced) != 2 {
		t.Fatalf("forced = %+v, want 2 moves", out.Forced)
	}
	// Largest first: job 0 (size 10) to proc 0 (load 0); then job 1
	// (size 8) to post-drain proc 1 (old proc 2, load 2).
	if out.Forced[0] != (Move{Job: 0, From: 1, To: 0}) {
		t.Fatalf("forced[0] = %+v", out.Forced[0])
	}
	if out.Forced[1] != (Move{Job: 1, From: 1, To: 1}) {
		t.Fatalf("forced[1] = %+v", out.Forced[1])
	}
	if p, _ := s.ProcOf(2); p != 1 {
		t.Fatalf("job 2 renumbered to proc %d, want 1", p)
	}
	if s.TotalMoves() != 2 {
		t.Fatalf("total moves %d", s.TotalMoves())
	}
}

func TestSessionExplicitRebalance(t *testing.T) {
	// All load on processor 0; explicit rebalance with a generous budget
	// must spread it and bump the revision.
	s, err := New(Config{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	// An empty session has nothing to move and keeps its revision.
	if moves, err := s.Rebalance(context.Background(), 5); err != nil || moves != nil || s.Rev() != 0 {
		t.Fatalf("empty rebalance: moves=%v err=%v rev=%d", moves, err, s.Rev())
	}
	for i := 0; i < 16; i++ {
		mustApply(t, s, Delta{Op: OpArrive, Job: i, Size: 10, Proc: 0})
	}
	before, rev := s.Makespan(), s.Rev()
	moves, err := s.Rebalance(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 || len(moves) > 12 {
		t.Fatalf("moves = %d, want 1..12", len(moves))
	}
	if s.Makespan() >= before {
		t.Fatalf("makespan %d did not improve on %d", s.Makespan(), before)
	}
	if s.Rev() != rev+1 {
		t.Fatalf("rev %d, want %d", s.Rev(), rev+1)
	}
	for _, mv := range moves {
		if p, ok := s.ProcOf(mv.Job); !ok || p != mv.To {
			t.Fatalf("move %+v not applied: job on %d", mv, p)
		}
	}
	// k = 0 is a no-op with no revision bump.
	rev = s.Rev()
	if moves, err := s.Rebalance(context.Background(), 0); err != nil || len(moves) != 0 || s.Rev() != rev {
		t.Fatalf("k=0 rebalance: moves=%d err=%v rev=%d", len(moves), err, s.Rev())
	}
}

func TestSessionTargetMode(t *testing.T) {
	// Target mode: every accepted rebalance lands makespan ≤ 1.5·target
	// (the bicriteria bound) whenever the probe is feasible.
	s, err := New(Config{M: 3, Target: 30, AutoRebalance: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		out := mustApply(t, s, Delta{Op: OpArrive, Job: i, Size: 10, Proc: 0})
		if out.Rebalanced && out.Makespan > 45 {
			t.Fatalf("delta %d: makespan %d > 1.5·target", i, out.Makespan)
		}
	}
	if s.Makespan() > 45 {
		t.Fatalf("final makespan %d > 45", s.Makespan())
	}
}

func TestSessionSnapshotIDs(t *testing.T) {
	s, err := New(Config{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, Delta{Op: OpArrive, Job: 50, Size: 5, Proc: 0})
	mustApply(t, s, Delta{Op: OpArrive, Job: 51, Size: 7, Cost: 3, Proc: 1})
	mustApply(t, s, Delta{Op: OpDepart, Job: 50}) // 51 swaps into slot 0
	snap, ids := s.Snapshot()
	if snap.N() != 1 || len(ids) != 1 || ids[0] != 51 {
		t.Fatalf("snapshot: n=%d ids=%v", snap.N(), ids)
	}
	if snap.Jobs[0] != (instance.Job{Size: 7, Cost: 3}) || snap.Assign[0] != 1 {
		t.Fatalf("snapshot slot 0: %+v @%d", snap.Jobs[0], snap.Assign[0])
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionConfigValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("empty config: %v", err)
	}
	if _, err := New(Config{M: 2, Target: -1}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("negative target: %v", err)
	}
	if s, err := New(Config{M: 2, MoveBudget: -5}); err != nil || s == nil {
		t.Fatalf("negative budget should clamp: %v", err)
	}
}
