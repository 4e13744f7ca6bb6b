package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersClamping(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, tasks, want int
	}{
		{0, 100, gmp},
		{-3, 100, gmp},
		{4, 100, 4},
		{4, 2, 2},
		{1, 0, 1},
		{0, 0, gmp},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.tasks); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.tasks, got, c.want)
		}
	}
}

func TestDoRunsEveryTaskExactlyOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int32
	if err := Do(context.Background(), n, 8, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestDoFirstErrorCancelsRemainingWork(t *testing.T) {
	wantErr := errors.New("boom")
	var started atomic.Int32
	err := Do(context.Background(), 10_000, 2, func(i int) error {
		started.Add(1)
		if i == 3 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if s := started.Load(); s >= 10_000 {
		t.Fatalf("error did not cancel: all %d tasks started", s)
	}
}

func TestDoSequentialErrorStopsInOrder(t *testing.T) {
	wantErr := errors.New("boom")
	var ran []int
	err := Do(context.Background(), 10, 1, func(i int) error {
		ran = append(ran, i)
		if i == 4 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if len(ran) != 5 {
		t.Fatalf("sequential path ran %v, want exactly [0..4]", ran)
	}
}

func TestDoContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- Do(ctx, 1_000_000, 2, func(i int) error {
			if started.Add(1) == 10 {
				cancel()
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the pool")
	}
	if s := started.Load(); s >= 1_000_000 {
		t.Fatalf("cancellation did not skip work: %d tasks started", s)
	}
}

func TestDoPanicPropagatesAsPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("task panic was swallowed")
		}
		p, ok := r.(*Panic)
		if !ok {
			t.Fatalf("recovered %T, want *par.Panic", r)
		}
		if p.Value != "kaboom" {
			t.Fatalf("panic value %v, want kaboom", p.Value)
		}
		if len(p.Stack) == 0 {
			t.Fatal("panic stack not captured")
		}
	}()
	_ = Do(context.Background(), 100, 4, func(i int) error {
		if i == 7 {
			panic("kaboom")
		}
		return nil
	})
	t.Fatal("Do returned normally despite task panic")
}

func TestDoZeroTasks(t *testing.T) {
	calls := 0
	if err := Do(context.Background(), 0, 4, func(i int) error {
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times for zero tasks", calls)
	}
}

// TestDoConcurrencyBound pins that no more than `workers` tasks run at
// once, the pool's core resource guarantee.
func TestDoConcurrencyBound(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	if err := Do(context.Background(), 64, workers, func(i int) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}
