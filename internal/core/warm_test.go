package core

import (
	"context"
	"testing"

	"repro/internal/instance"
	"repro/internal/workload"
)

// applyRandomWarmOp mutates w with one random structural operation and
// returns false if the op was skipped (empty state).
func applyRandomWarmOp(t *testing.T, w *Warm, rng *workload.RNG) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 4: // add
		proc := int(rng.Int63n(int64(w.M())))
		w.Add(1+rng.Int63n(60), 1+rng.Int63n(4), proc)
	case op < 6: // remove
		if w.N() > 0 {
			w.Remove(rng.Intn(w.N()))
		}
	case op < 8: // resize
		if w.N() > 0 {
			w.Resize(rng.Intn(w.N()), 1+rng.Int63n(60))
		}
	case op < 9: // move
		if w.N() > 0 {
			w.Move(rng.Intn(w.N()), int(rng.Int63n(int64(w.M()))))
		}
	default: // grow/shrink the farm
		if w.M() > 2 && rng.Intn(2) == 0 {
			p := int(rng.Int63n(int64(w.M())))
			for len(w.Row(p)) > 0 {
				j := w.Row(p)[0]
				w.Move(int(j), w.MinLoadProc(p))
			}
			w.RemoveProc(p)
		} else {
			w.AddProc()
		}
	}
}

// assertWarmMatchesCold checks the Warm equivalence contract at one
// state: loads bookkeeping, Solve vs cold MPartition, and Probe vs
// cold Partition, all on the materialized snapshot.
func assertWarmMatchesCold(t *testing.T, w *Warm, k int) {
	t.Helper()
	snap := w.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid after mutations: %v", err)
	}
	fresh := snap.Loads(snap.Assign)
	for p, l := range w.Loads(nil) {
		if l != fresh[p] {
			t.Fatalf("incremental load[%d] = %d, fresh %d", p, l, fresh[p])
		}
	}
	warmSol, err := w.Solve(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	coldSol, err := MPartition(context.Background(), snap, k, IncrementalScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warmSol.Makespan != coldSol.Makespan || warmSol.Moves != coldSol.Moves {
		t.Fatalf("warm solve (makespan %d, moves %d) != cold (makespan %d, moves %d)",
			warmSol.Makespan, warmSol.Moves, coldSol.Makespan, coldSol.Moves)
	}
	for j := range warmSol.Assign {
		if warmSol.Assign[j] != coldSol.Assign[j] {
			t.Fatalf("warm assign[%d] = %d, cold %d", j, warmSol.Assign[j], coldSol.Assign[j])
		}
	}
	if w.N() > 0 {
		target := snap.LowerBound() + snap.InitialMakespan()/2
		warmRes := w.Probe(target)
		coldRes := Partition(snap, target, nil)
		if warmRes.Feasible != coldRes.Feasible || warmRes.Removals != coldRes.Removals {
			t.Fatalf("warm probe (feasible %v, removals %d) != cold (feasible %v, removals %d)",
				warmRes.Feasible, warmRes.Removals, coldRes.Feasible, coldRes.Removals)
		}
		if warmRes.Feasible {
			for j := range warmRes.Solution.Assign {
				if warmRes.Solution.Assign[j] != coldRes.Solution.Assign[j] {
					t.Fatalf("probe assign[%d] differs", j)
				}
			}
		}
	}
}

// TestWarmMatchesColdUnderMutation is the core equivalence pin: after
// every random mutation the warm solver's Solve and Probe results are
// identical to rebuilding from scratch on the snapshot.
func TestWarmMatchesColdUnderMutation(t *testing.T) {
	seeds := 12
	steps := 25
	if testing.Short() {
		seeds, steps = 4, 12
	}
	for seed := 0; seed < seeds; seed++ {
		rng := workload.NewRNG(uint64(1000 + seed))
		m := 2 + rng.Intn(5)
		n := rng.Intn(30)
		sizes := make([]int64, n)
		assign := make([]int, n)
		for j := range sizes {
			sizes[j] = 1 + rng.Int63n(50)
			assign[j] = rng.Intn(m)
		}
		in, err := instance.New(m, sizes, nil, assign)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWarm(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < steps; step++ {
			applyRandomWarmOp(t, w, rng)
			assertWarmMatchesCold(t, w, rng.Intn(8))
		}
	}
}

// TestWarmEmptyAndDegenerate exercises the edges: zero jobs, one
// processor, and removal down to empty.
func TestWarmEmptyAndDegenerate(t *testing.T) {
	in, err := instance.New(1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWarm(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol, err := w.Solve(context.Background(), 3); err != nil || sol.Makespan != 0 {
		t.Fatalf("empty solve: %v %v", sol, err)
	}
	j := w.Add(5, 1, 0)
	if j != 0 || w.Makespan() != 5 {
		t.Fatalf("add: j=%d makespan=%d", j, w.Makespan())
	}
	w.AddProc()
	w.Move(0, 1)
	if w.Load(0) != 0 || w.Load(1) != 5 {
		t.Fatalf("loads after move: %d %d", w.Load(0), w.Load(1))
	}
	w.Remove(0)
	if w.N() != 0 || w.Makespan() != 0 {
		t.Fatalf("remove: n=%d makespan=%d", w.N(), w.Makespan())
	}
	assertWarmMatchesCold(t, w, 2)
}

// TestWarmRemoveRelabels pins the swap-remove contract: the last index
// takes the removed slot.
func TestWarmRemoveRelabels(t *testing.T) {
	in := instance.MustNew(2, []int64{10, 20, 30}, nil, []int{0, 1, 0})
	w, err := NewWarm(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Remove(0) // job 2 (size 30, proc 0) must now be index 0
	if w.N() != 2 || w.JobSize(0) != 30 || w.AssignOf(0) != 0 {
		t.Fatalf("relabel failed: n=%d size0=%d proc0=%d", w.N(), w.JobSize(0), w.AssignOf(0))
	}
	if w.Load(0) != 30 || w.Load(1) != 20 {
		t.Fatalf("loads = %d,%d", w.Load(0), w.Load(1))
	}
	assertWarmMatchesCold(t, w, 1)
}
