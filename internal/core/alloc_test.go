package core

// Allocation guards for the PARTITION kernels: with a warmed solver and
// no sink, the probe, the light search wrapper, the count probe and the
// threshold ladder must not touch the heap. These pin the zero-alloc
// contract the flat rewrite exists for; any append that escapes scratch
// reuse or closure that slips into a hot loop fails here, not in a
// profile.

import (
	"testing"

	"repro/internal/instance"
)

func allocGuardInstance() *instance.Instance {
	return instance.MustNew(4,
		[]int64{13, 11, 9, 7, 6, 5, 4, 3, 2, 2, 1, 1},
		nil,
		[]int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 0})
}

// guardTargets spans infeasible, tight, and loose probes so the guard
// covers every probe exit path.
func guardTargets(in *instance.Instance) []int64 {
	initial := Partition(in, in.TotalSize(), nil).Solution.Makespan
	return []int64{
		in.MaxSize() - 1, // infeasible: below the largest job
		in.MaxSize(),
		(in.TotalSize() + int64(in.M) - 1) / int64(in.M),
		initial,
		in.TotalSize(),
	}
}

func TestProbeFlatZeroAllocs(t *testing.T) {
	in := allocGuardInstance()
	s := newSolver(in, nil)
	targets := guardTargets(in)
	for _, v := range targets {
		s.probeFlat(v) // warm the scratch at every exit path
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range targets {
			s.probeFlat(v)
		}
	}); n != 0 {
		t.Fatalf("probeFlat allocates %.1f per target sweep, want 0", n)
	}
}

func TestRunLightZeroAllocs(t *testing.T) {
	in := allocGuardInstance()
	s := newSolver(in, nil)
	targets := guardTargets(in)
	for _, v := range targets {
		s.runLight(v)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range targets {
			s.runLight(v)
		}
	}); n != 0 {
		t.Fatalf("runLight allocates %.1f per target sweep, want 0", n)
	}
}

func TestProbeCountZeroAllocs(t *testing.T) {
	in := allocGuardInstance()
	s := newSolver(in, nil)
	targets := guardTargets(in)
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range targets {
			s.runCount(v)
		}
	}); n != 0 {
		t.Fatalf("runCount allocates %.1f per target sweep, want 0", n)
	}
}

func TestLadderZeroAllocs(t *testing.T) {
	in := allocGuardInstance()
	s := newSolver(in, nil)
	lo := in.MaxSize()
	hi := in.TotalSize()
	buf := s.ladder(lo, hi, nil)
	if n := testing.AllocsPerRun(100, func() {
		buf = s.ladder(lo, hi, buf)
	}); n != 0 {
		t.Fatalf("ladder allocates %.1f/op, want 0", n)
	}
}
