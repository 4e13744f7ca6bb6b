package ptas

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/instance"
)

// ptasHardInstance is far beyond what the ε = 0.1 guess ladder can
// finish interactively (minutes of DP work sequentially), so only
// cancellation can end the deadline tests below quickly.
func ptasHardInstance() *instance.Instance {
	sizes := make([]int64, 18)
	assign := make([]int, 18)
	for i := range sizes {
		sizes[i] = int64(50 + i*13%37)
		assign[i] = i % 2
	}
	return instance.MustNew(4, sizes, nil, assign)
}

func ptasHardOptions() Options {
	return Options{Eps: 0.1, MaxStates: 1 << 26, MaxJobs: 64}
}

// TestSolveDeadline is the engine contract for the PTAS: the deadline
// interrupts the guess ladder and the DP inner loops mid-layer and
// surfaces as context.DeadlineExceeded promptly.
func TestSolveDeadline(t *testing.T) {
	in := ptasHardInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Solve(ctx, in, in.TotalSize(), ptasHardOptions())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Solve under expired deadline: err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("Solve took %v to notice a 50ms deadline", elapsed)
	}
}

func TestSolveCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := ptasHardInstance()
	if _, err := Solve(ctx, in, in.TotalSize(), ptasHardOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve with canceled ctx: err = %v, want Canceled", err)
	}
}
