package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/server"
	"repro/internal/workload"
)

// solvedResponse returns a solve input and the server-shaped response
// a correct daemon gives for it.
func solvedResponse(t *testing.T) (*solveInput, server.SolveResponse) {
	t.Helper()
	in := workload.Generate(workload.Config{
		N: 40, M: 4, Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Seed: 7,
	})
	si := newSolveInput("mpartition", 3, in)
	sol, err := engine.Solve(context.Background(), "mpartition", in, engine.Params{K: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return si, server.SolveResponse{
		Solver: "mpartition", Assign: sol.Assign, Makespan: sol.Makespan, Moves: sol.Moves,
		InitialMakespan: in.InitialMakespan(), LowerBound: in.LowerBound(), Cache: "miss",
	}
}

func TestCheckSolveCatchesCorruptResponses(t *testing.T) {
	si, good := solvedResponse(t)
	check := func(resp server.SolveResponse) error {
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var s sample
		return checkSolve(si, body, &s)
	}
	if err := check(good); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	if good.Moves == 0 {
		t.Fatal("fixture solution moves nothing; corruptions below would not bite")
	}
	corrupt := map[string]func(r *server.SolveResponse){
		"makespan": func(r *server.SolveResponse) { r.Makespan++ },
		"moves":    func(r *server.SolveResponse) { r.Moves-- },
		"lower":    func(r *server.SolveResponse) { r.LowerBound-- },
		"initial":  func(r *server.SolveResponse) { r.InitialMakespan++ },
		"solver":   func(r *server.SolveResponse) { r.Solver = "greedy" },
		"short":    func(r *server.SolveResponse) { r.Assign = r.Assign[1:] },
		"range":    func(r *server.SolveResponse) { r.Assign[0] = si.in.M },
		"budget": func(r *server.SolveResponse) {
			// Move every job off its initial processor: k is exceeded.
			for j := range r.Assign {
				r.Assign[j] = (si.in.Assign[j] + 1) % si.in.M
			}
		},
	}
	for name, f := range corrupt {
		resp := good
		resp.Assign = append([]int(nil), good.Assign...)
		f(&resp)
		if err := check(resp); err == nil {
			t.Errorf("%s: corrupt response passed the checker", name)
		}
	}
}

// sessionStep runs deltas through a real dispatch core and returns the
// mirror after them plus the core's result for one more delta d.
func sessionStep(t *testing.T, d dispatch.SessionDeltaRequest) (*mirror, dispatch.SessionDeltaRequest, dispatch.SessionDeltaResult) {
	t.Helper()
	ctx := context.Background()
	core := newCore(nil)
	t.Cleanup(core.Close)
	in := workload.Generate(workload.Config{N: 30, M: 4, Placement: workload.PlaceSkewed, Seed: 3})
	st, err := core.SessionCreate(ctx, &dispatch.SessionRequest{Instance: &instance.Extended{Instance: *in.Clone()}, MoveBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	mr := newMirror(in)
	if err := mr.matches(st); err != nil {
		t.Fatal(err)
	}
	res, err := core.SessionDelta(ctx, st.ID, &d)
	if err != nil {
		t.Fatal(err)
	}
	return mr, d, res
}

func TestMirrorCatchesCorruptSessionResults(t *testing.T) {
	p := 0
	deltas := []dispatch.SessionDeltaRequest{
		{Op: "arrive", Job: 100, Size: 5000, Cost: 1, Proc: &p},
		{Op: "proc_drain", Proc: &p},
		{Op: "resize", Job: 3, Size: 4000},
	}
	for _, d := range deltas {
		mr, d, res := sessionStep(t, d)
		if err := mr.apply(d, &res, 2); err != nil {
			t.Fatalf("%s: correct result rejected: %v", d.Op, err)
		}
	}
	corrupt := map[string]func(r *dispatch.SessionDeltaResult){
		"load":     func(r *dispatch.SessionDeltaResult) { r.Loads[1]++ },
		"makespan": func(r *dispatch.SessionDeltaResult) { r.Makespan-- },
		"n":        func(r *dispatch.SessionDeltaResult) { r.N++ },
		"dropped":  func(r *dispatch.SessionDeltaResult) { r.Moves = r.Moves[1:] },
		"from": func(r *dispatch.SessionDeltaResult) {
			r.Moves[0].From = (r.Moves[0].From + 1) % r.M
		},
		"budget": func(r *dispatch.SessionDeltaResult) {
			r.Moves = append(r.Moves, r.Moves[0], r.Moves[0])
		},
	}
	for name, f := range corrupt {
		mr, d, res := sessionStep(t, deltas[0])
		if len(res.Moves) == 0 {
			t.Fatal("fixture delta rebalanced nothing; corruptions below would not bite")
		}
		res.Loads = append([]int64(nil), res.Loads...)
		res.Moves = append([]dispatch.SessionMove(nil), res.Moves...)
		f(&res)
		if err := mr.apply(d, &res, 2); err == nil {
			t.Errorf("%s: corrupt session result passed the mirror", name)
		}
	}
	// A drain must rehome exactly the drained processor's jobs.
	mr, d, res := sessionStep(t, deltas[1])
	res.Forced = res.Forced[1:]
	if err := mr.apply(d, &res, 2); err == nil {
		t.Error("drain with a missing forced move passed the mirror")
	}
}
