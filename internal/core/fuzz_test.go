package core

import (
	"context"
	"io"
	"slices"
	"testing"

	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/verify"
)

// fuzzInstance builds a valid instance directly from raw fuzz bytes:
// each byte is one job (size 1–64, processor from the low bits).
func fuzzInstance(mRaw uint8, raw []byte) *instance.Instance {
	m := int(mRaw%6) + 1
	if len(raw) == 0 {
		raw = []byte{1}
	}
	if len(raw) > 48 {
		raw = raw[:48]
	}
	sizes := make([]int64, len(raw))
	assign := make([]int, len(raw))
	for i, b := range raw {
		sizes[i] = int64(b%64) + 1
		assign[i] = int(b>>6) % m
	}
	return instance.MustNew(m, sizes, nil, assign)
}

// FuzzInstance lends fuzzInstance to the reference tests of package
// core_test.
var FuzzInstance = fuzzInstance

// FuzzMPartitionInvariants checks on arbitrary inputs that M-PARTITION
// returns a verified assignment within the move budget, never worse
// than the initial makespan, and at least the packing lower bound; that
// both search modes return the ladder oracle's assignment, makespan and
// move count; and that a traced binary search, whose rungs run the full
// probe where an untraced one runs the count probe, returns the
// untraced solution.
func FuzzMPartitionInvariants(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{5, 9, 2, 200, 17})
	f.Add(uint8(1), uint8(0), []byte{255})
	f.Add(uint8(5), uint8(9), []byte{1, 1, 1, 1, 1, 1, 1, 64, 128, 192})
	f.Add(uint8(2), uint8(1), []byte{90, 90, 90})
	f.Fuzz(func(t *testing.T, mRaw, kRaw uint8, raw []byte) {
		in := fuzzInstance(mRaw, raw)
		k := int(kRaw % 16)
		sol, _ := MPartition(context.Background(), in, k, BinarySearch, nil)
		if _, err := verify.WithinMoves(in, sol.Assign, k); err != nil {
			t.Fatal(err)
		}
		if sol.Makespan > in.InitialMakespan() {
			t.Fatalf("%d worse than initial %d", sol.Makespan, in.InitialMakespan())
		}
		if sol.Makespan < in.LowerBound() {
			t.Fatalf("%d below lower bound %d", sol.Makespan, in.LowerBound())
		}
		assertModesAgree(t, in, k)
		traced, _ := MPartition(context.Background(), in, k, BinarySearch, obs.NewTracing(obs.NewJSONL(io.Discard)))
		if !slices.Equal(traced.Assign, sol.Assign) || traced.Makespan != sol.Makespan || traced.Moves != sol.Moves {
			t.Fatalf("traced binary search %d/%d moves %v, untraced %d/%d moves %v",
				traced.Makespan, traced.Moves, traced.Assign, sol.Makespan, sol.Moves, sol.Assign)
		}
	})
}

// FuzzPartitionBudgetInvariants does the same for the §3.2 variant with
// byte-derived costs.
func FuzzPartitionBudgetInvariants(f *testing.F) {
	f.Add(uint8(3), uint16(10), []byte{5, 9, 2, 200, 17})
	f.Add(uint8(2), uint16(0), []byte{90, 90, 90})
	f.Add(uint8(4), uint16(999), []byte{7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, mRaw uint8, bRaw uint16, raw []byte) {
		if len(raw) == 0 {
			raw = []byte{1}
		}
		in := fuzzInstance(mRaw, raw)
		// Derive costs from the bytes too (offset so they differ from sizes).
		for j := range in.Jobs {
			in.Jobs[j].Cost = int64(raw[j%len(raw)]%32) + 1
		}
		budget := int64(bRaw % 512)
		sol, _ := PartitionBudget(context.Background(), in, budget, BudgetOptions{}, nil)
		if _, err := verify.WithinBudget(in, sol.Assign, budget); err != nil {
			t.Fatal(err)
		}
		if sol.Makespan > in.InitialMakespan() {
			t.Fatalf("%d worse than initial %d", sol.Makespan, in.InitialMakespan())
		}
	})
}
