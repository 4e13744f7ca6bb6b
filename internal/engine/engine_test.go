package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/instance"
)

func testInstance() *instance.Instance {
	return instance.MustNew(2, []int64{5, 4, 3, 2}, nil, []int{0, 0, 0, 0})
}

func TestSolveDispatchesByName(t *testing.T) {
	in := testInstance()
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"greedy", Params{K: 2}},
		{"mpartition", Params{K: 2}},
		{"budget", Params{Budget: 2}},
		{"ptas", Params{Budget: 2, Eps: 1}},
		{"exact", Params{K: 2}},
		{"exact-budget", Params{Budget: 2}},
		{"gap", Params{Budget: 2}},
		{"lpt", Params{}},
		{"multifit", Params{}},
		{"hs-ptas", Params{Eps: 0.2}},
	} {
		sol, err := Solve(context.Background(), c.name, in, c.p)
		if err != nil {
			t.Errorf("Solve(%q): %v", c.name, err)
			continue
		}
		if sol.Makespan <= 0 || sol.Makespan > in.InitialMakespan() {
			t.Errorf("Solve(%q): implausible makespan %d", c.name, sol.Makespan)
		}
	}
}

func TestSolveExactMatchesOptimum(t *testing.T) {
	sol, err := Solve(context.Background(), "exact", testInstance(), Params{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Makespan != 7 {
		t.Fatalf("exact makespan = %d, want 7", sol.Makespan)
	}
}

func TestSolveUnknownName(t *testing.T) {
	_, err := Solve(context.Background(), "nope", testInstance(), Params{})
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("err = %v, want ErrUnknownSolver", err)
	}
	if !strings.Contains(err.Error(), "greedy") {
		t.Fatalf("unknown-solver error should list known names, got %q", err)
	}
}

func TestSolveRejectsSweepKind(t *testing.T) {
	_, err := Solve(context.Background(), "frontier", testInstance(), Params{})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// TestSolveHonorsCanceledContext pins the cancellation contract at the
// dispatch layer for every registered single-solution solver: an
// already-canceled context never runs the solver.
func TestSolveHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := testInstance()
	for _, s := range Specs() {
		if s.Kind != KindSolution {
			continue
		}
		if _, err := Solve(ctx, s.Name, in, Params{K: 1, Budget: 1, Eps: 1}); !errors.Is(err, context.Canceled) {
			t.Errorf("Solve(%q) with canceled ctx: err = %v, want Canceled", s.Name, err)
		}
	}
}

// TestExponentialSolversHonorDeadlines drives each Exponential-flagged
// solver on an instance too hard to finish and requires a prompt
// DeadlineExceeded — the property the -timeout CLI flag relies on.
func TestExponentialSolversHonorDeadlines(t *testing.T) {
	sizes := make([]int64, 18)
	assign := make([]int, 18)
	allowed := make([][]int, 18)
	for i := range sizes {
		sizes[i] = int64(50 + i*13%37)
		assign[i] = i % 4
	}
	in := instance.MustNew(4, sizes, nil, assign)
	// A sparse conflict chain keeps the instance feasible while leaving
	// the optimality proof nearly as large as the unconstrained search.
	var conflicts [][2]int
	for i := 0; i+1 < len(sizes); i++ {
		conflicts = append(conflicts, [2]int{i, i + 1})
	}
	for _, s := range Specs() {
		if !s.Caps.Exponential {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		start := time.Now()
		_, err := Solve(ctx, s.Name, in, Params{
			K: in.N(), Budget: in.TotalSize(), Eps: 0.1, Workers: 1,
			Allowed: allowed, Conflicts: conflicts,
		})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Solve(%q) under 30ms deadline: err = %v, want DeadlineExceeded", s.Name, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("Solve(%q) took %v to notice a 30ms deadline", s.Name, elapsed)
		}
	}
}

func TestValidateFlags(t *testing.T) {
	greedy, _ := Lookup("greedy")
	if err := greedy.ValidateFlags(map[string]bool{"k": true}); err != nil {
		t.Errorf("greedy -k rejected: %v", err)
	}
	if err := greedy.ValidateFlags(map[string]bool{"budget": true}); err == nil {
		t.Error("greedy -budget accepted")
	}
	if err := UnknownSolver("nope"); !errors.Is(err, ErrUnknownSolver) {
		t.Errorf("unknown name: err = %v, want ErrUnknownSolver", err)
	}
}

func TestCapsAccepts(t *testing.T) {
	c := Caps{K: true, Eps: true}
	for flag, want := range map[string]bool{"k": true, "eps": true, "budget": false, "workers": false, "timeout": false} {
		if got := c.Accepts(flag); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", flag, got, want)
		}
	}
}

func TestRegisterRejectsDuplicatesAndMalformed(t *testing.T) {
	mustPanic := func(name string, s Spec) {
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%s) did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("duplicate", Spec{Name: "greedy", Run: func(context.Context, *instance.Instance, Params) (instance.Solution, error) {
		return instance.Solution{}, nil
	}})
	mustPanic("empty name", Spec{})
	mustPanic("nil run", Spec{Name: "no-run"})
}

// TestRegisterTestUnregistersOnCleanup pins the scoped registration
// tests use: the spec is live for the test that registered it and gone
// after, so the same test can run again in one process.
func TestRegisterTestUnregistersOnCleanup(t *testing.T) {
	spec := Spec{Name: "enginetest-scoped", Run: func(_ context.Context, in *instance.Instance, _ Params) (instance.Solution, error) {
		return instance.NewSolution(in, in.Assign), nil
	}}
	for run := 0; run < 2; run++ {
		t.Run("", func(t *testing.T) {
			RegisterTest(t, spec)
			if _, ok := Lookup(spec.Name); !ok {
				t.Fatal("spec not registered inside its test")
			}
		})
		if _, ok := Lookup(spec.Name); ok {
			t.Fatalf("run %d: spec still registered after its test ended", run)
		}
	}
}

func TestListTextCoversRegistry(t *testing.T) {
	text := ListText()
	for _, name := range Names() {
		if !strings.Contains(text, name) {
			t.Errorf("ListText missing %q", name)
		}
	}
}

func TestMarkdownTables(t *testing.T) {
	ft := MarkdownFlagTable()
	if !strings.Contains(ft, "`-timeout`") {
		t.Error("flag table missing -timeout row")
	}
	for _, f := range TuningFlags {
		if !strings.Contains(ft, "`-"+f.Name+"`") {
			t.Errorf("flag table missing -%s row", f.Name)
		}
	}
	at := MarkdownAlgorithmTable()
	for _, name := range Names() {
		if !strings.Contains(at, "`"+name+"`") {
			t.Errorf("algorithm table missing %q", name)
		}
	}
}
