// Package par is the repository's worker-pool engine for embarrassingly
// parallel aggregation: the frontier k-sweep, the experiment suite
// fan-out, the router's health probes, and the server's and router's
// /v1/batch fan-outs all funnel through it. A single solve never does:
// every solver runs on its caller's goroutine. Stdlib-only, like
// everything else in this repository.
//
// Design contract (DESIGN.md §7):
//
//   - Bounded concurrency: at most `workers` goroutines run tasks, with
//     workers ≤ 0 meaning runtime.GOMAXPROCS(0) and workers clamped to
//     the task count. workers == 1 runs every task inline on the calling
//     goroutine, which callers use as the byte-identical sequential
//     reference path.
//   - Deterministic result ordering: tasks are addressed by index, so
//     a task that stores its result at its own index leaves the output
//     independent of scheduling. Side effects (metrics, trace events)
//     may interleave across tasks when workers > 1.
//   - Context cancellation: once ctx is done, no new task starts; Do
//     returns ctx.Err() if it cancelled the run and no task error
//     preceded it.
//   - Panic capture: a panicking task does not crash its worker
//     goroutine silently or deadlock the pool. The first panic is
//     captured with its stack, remaining work is cancelled, and the
//     panic is re-raised on the calling goroutine wrapped in *Panic.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic wraps a panic recovered from a pool task; it is re-raised on
// the goroutine that called Do so a worker panic behaves like a
// plain function-call panic with the original stack attached.
type Panic struct {
	// Value is the original panic value.
	Value any
	// Stack is the stack of the panicking task's goroutine.
	Stack []byte
}

// Error implements error so a recovered *Panic prints usefully.
func (p *Panic) Error() string {
	return fmt.Sprintf("par: task panic: %v\n%s", p.Value, p.Stack)
}

// Workers resolves a requested worker count against a task count:
// requested ≤ 0 becomes runtime.GOMAXPROCS(0), and the result is
// clamped to [1, tasks] (minimum 1 even for zero tasks).
func Workers(requested, tasks int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if tasks > 0 && w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs fn(i) for every i in [0, tasks) on up to workers goroutines
// (see Workers for the clamping rules). The first task error cancels
// the remaining work and is returned; a task panic cancels the work and
// re-panics on the calling goroutine as *Panic. With workers == 1 every
// task runs inline on the calling goroutine in index order — the
// sequential reference path.
func Do(ctx context.Context, tasks, workers int, fn func(i int) error) error {
	if tasks <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, tasks)
	if workers == 1 {
		for i := 0; i < tasks; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next task index to claim
		failMu   sync.Mutex
		firstErr error
		firstPan *Panic
	)
	fail := func(err error, pan *Panic) {
		failMu.Lock()
		if firstErr == nil && firstPan == nil {
			firstErr, firstPan = err, pan
			cancel()
		}
		failMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= tasks || cctx.Err() != nil {
					return
				}
				err, pan := runTask(fn, i)
				if pan != nil {
					fail(nil, pan)
					return
				}
				if err != nil {
					fail(err, nil)
					return
				}
			}
		}()
	}
	wg.Wait()

	failMu.Lock()
	err, pan := firstErr, firstPan
	failMu.Unlock()
	if pan != nil {
		panic(pan)
	}
	if err != nil {
		return err
	}
	// Every task either ran or was skipped because ctx fired.
	return ctx.Err()
}

// runTask isolates the recover so a task panic is converted into a
// value instead of unwinding the worker loop.
func runTask(fn func(i int) error, i int) (err error, pan *Panic) {
	defer func() {
		if r := recover(); r != nil {
			pan = &Panic{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i), nil
}
