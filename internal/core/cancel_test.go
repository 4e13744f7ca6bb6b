package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/instance"
	"repro/internal/workload"
)

func cancelTestInstance() *instance.Instance {
	return workload.Generate(workload.Config{
		N: 60, M: 5, MaxSize: 100, Sizes: workload.SizeZipf,
		Placement: workload.PlaceSkewed, Seed: 7,
	})
}

// TestMPartitionCtxCanceled pins that every search mode notices an
// already-canceled context before probing.
func TestMPartitionCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := cancelTestInstance()
	for _, mode := range []SearchMode{BinarySearch, IncrementalScan} {
		if _, err := MPartition(ctx, in, 10, mode, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("mode %v with canceled ctx: err = %v, want Canceled", mode, err)
		}
	}
}

// TestMPartitionCtxMatchesWrapper pins that the context plumbing does
// not change results: with a live cancellable context every mode
// returns exactly what it returns under the background context.
func TestMPartitionCtxMatchesWrapper(t *testing.T) {
	in := cancelTestInstance()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, mode := range []SearchMode{BinarySearch, IncrementalScan} {
		want, _ := MPartition(context.Background(), in, 10, mode, nil)
		got, err := MPartition(ctx, in, 10, mode, nil)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if got.Makespan != want.Makespan || got.Moves != want.Moves {
			t.Errorf("mode %v: ctx variant (%d, %d) != wrapper (%d, %d)",
				mode, got.Makespan, got.Moves, want.Makespan, want.Moves)
		}
	}
}

func TestPartitionBudgetCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := cancelTestInstance()
	if _, err := PartitionBudget(ctx, in, 50, BudgetOptions{}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("PartitionBudget with canceled ctx: err = %v, want Canceled", err)
	}
}

func TestPartitionBudgetCtxMatchesWrapper(t *testing.T) {
	in := cancelTestInstance()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	want, _ := PartitionBudget(context.Background(), in, 50, BudgetOptions{}, nil)
	got, err := PartitionBudget(ctx, in, 50, BudgetOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.MoveCost != want.MoveCost {
		t.Errorf("ctx variant (%d, %d) != wrapper (%d, %d)",
			got.Makespan, got.MoveCost, want.Makespan, want.MoveCost)
	}
}
