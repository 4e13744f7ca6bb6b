package exact

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/instance"
)

// hardInstance is small enough to pass Limits.MaxJobs but explores far
// more than one poll interval (4096 nodes) of branch-and-bound: 20
// near-tied jobs on 4 machines with an unconstrained move budget take
// on the order of a second to prove optimal.
func hardInstance() *instance.Instance {
	sizes := make([]int64, 20)
	assign := make([]int, 20)
	for i := range sizes {
		sizes[i] = int64(100 + i*7%23)
	}
	return instance.MustNew(4, sizes, nil, assign)
}

// TestSolveDeadline is the engine contract for exponential solvers: a
// context deadline interrupts the search mid-tree and surfaces as
// context.DeadlineExceeded promptly — not after the search would have
// finished on its own.
func TestSolveDeadline(t *testing.T) {
	in := hardInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Solve(ctx, in, in.N(), Limits{MaxNodes: 1 << 40})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Solve under expired deadline: err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Solve took %v to notice a 30ms deadline", elapsed)
	}
}

func TestSolveCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, hardInstance(), 20, Limits{MaxNodes: 1 << 40}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve with canceled ctx: err = %v, want Canceled", err)
	}
}

func TestSolveBudgetDeadline(t *testing.T) {
	in := hardInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SolveBudget(ctx, in, in.TotalSize(), Limits{MaxNodes: 1 << 40})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveBudget under expired deadline: err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("SolveBudget took %v to notice a 30ms deadline", elapsed)
	}
}

func TestMinMovesCanceled(t *testing.T) {
	in := hardInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MinMoves(ctx, in, in.LowerBound(), Limits{MaxNodes: 1 << 40}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinMoves with canceled ctx: err = %v, want Canceled", err)
	}
}

// TestSolveNoDeadlineUnaffected pins that threading a context through
// the searcher did not change results: a background context returns the
// same optimum the pre-context solver did.
func TestSolveNoDeadlineUnaffected(t *testing.T) {
	in := instance.MustNew(2, []int64{5, 4, 3, 2}, nil, []int{0, 0, 0, 0})
	sol, err := Solve(context.Background(), in, 2, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Makespan != 7 {
		t.Fatalf("makespan = %d, want 7", sol.Makespan)
	}
}
