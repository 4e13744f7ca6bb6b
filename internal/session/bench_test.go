package session

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// benchSession builds a steady-state session: n jobs over m processors,
// already rebalanced once so the benchmark measures per-delta work, not
// the initial spread.
func benchSession(b *testing.B, n, m, k int, cold bool) (*Session, *workload.RNG) {
	b.Helper()
	rng := workload.NewRNG(42)
	s, err := New(Config{M: m, MoveBudget: k, AutoRebalance: true, Cold: cold})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Apply(context.Background(), Delta{
			Op: OpArrive, Job: i, Size: 1 + rng.Int63n(100), Cost: rng.Int63n(4), Proc: rng.Intn(m),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return s, rng
}

// benchDeltas runs the steady-state delta mix — resize-heavy with
// arrive/depart churn at a fixed population — against a prepared
// session. Each iteration is exactly one applied delta (and its
// rebalance solve).
func benchDeltas(b *testing.B, s *Session, rng *workload.RNG, n int) {
	b.Helper()
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	next := n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var d Delta
		switch r := rng.Intn(4); {
		case r == 0 && len(live) > n/2: // depart a random live job
			x := rng.Intn(len(live))
			d = Delta{Op: OpDepart, Job: live[x]}
			live[x] = live[len(live)-1]
			live = live[:len(live)-1]
		case r == 1 || len(live) == 0: // arrive on the least-loaded processor
			d = Delta{Op: OpArrive, Job: next, Size: 1 + rng.Int63n(100), Proc: -1}
			live = append(live, next)
			next++
		default: // resize a random live job
			d = Delta{Op: OpResize, Job: live[rng.Intn(len(live))], Size: 1 + rng.Int63n(100)}
		}
		if _, err := s.Apply(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionDelta measures one delta through the warm path: the
// retained solver state makes the re-solve skip materialization,
// validation, the radix build of the size-ordered rows, and all scratch
// allocation.
func BenchmarkSessionDelta(b *testing.B) {
	const n, m, k = 240, 8, 8
	s, rng := benchSession(b, n, m, k, false)
	benchDeltas(b, s, rng, n)
}

// BenchmarkSessionColdResolve is the baseline the speedup claim is
// measured against: the identical delta mix with Config.Cold, so every
// rebalance materializes a snapshot and runs the cold full solve —
// exactly what a client re-submitting the whole instance per delta
// would pay. Results are byte-identical to the warm path by the
// equivalence contract; only the cost differs.
func BenchmarkSessionColdResolve(b *testing.B) {
	const n, m, k = 240, 8, 8
	s, rng := benchSession(b, n, m, k, true)
	benchDeltas(b, s, rng, n)
}
