package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/session"
)

// ladder is the traced run's replay of a workload's inputs straight
// into the layers below HTTP, one layer at a time, in microseconds per
// call.
type ladder struct {
	engine, key, do     []float64 // engine.Solve, cache.Canonicalize, dispatch.Core.Do
	apply, sessionDelta []float64 // session.Session.Apply, dispatch.Core.SessionDelta
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// newCore builds a dispatch core with the daemon's default settings.
func newCore(sink *obs.Sink) *dispatch.Core {
	return dispatch.New(dispatch.Config{Workers: runtime.GOMAXPROCS(0), SolverWorkers: 1, Obs: sink})
}

// ladderSolves replays solve inputs into cache.Canonicalize,
// engine.Solve and a fresh dispatch core's Do (a cache miss each), and
// checks that the engine and the core agree on every makespan.
func ladderSolves(ctx context.Context, inputs []*solveInput) (ladder, error) {
	var lad ladder
	sink := obs.New()
	core := newCore(sink)
	defer core.Close()
	for _, si := range inputs {
		var req dispatch.Request
		if err := json.Unmarshal(si.body, &req); err != nil {
			return lad, err
		}
		spec, ok := engine.Lookup(req.Solver)
		if !ok {
			return lad, fmt.Errorf("unknown solver %q", req.Solver)
		}
		p := engine.Params{K: req.K, Workers: 1, Obs: sink}
		t0 := time.Now()
		cache.Canonicalize(req.Solver, spec.Caps, &req.Instance, p)
		lad.key = append(lad.key, micros(time.Since(t0)))
		t0 = time.Now()
		sol, err := engine.Solve(ctx, req.Solver, &req.Instance.Instance, p)
		lad.engine = append(lad.engine, micros(time.Since(t0)))
		if err != nil {
			return lad, err
		}
		t0 = time.Now()
		res, err := core.Do(ctx, &req)
		lad.do = append(lad.do, micros(time.Since(t0)))
		if err == nil {
			err = res.Err
		}
		if err != nil {
			return lad, err
		}
		if res.Sol.Makespan != sol.Makespan {
			return lad, fmt.Errorf("ladder: core makespan %d, engine %d", res.Sol.Makespan, sol.Makespan)
		}
	}
	return lad, nil
}

// ladderSessions replays each recorded open-loop session stream into a
// fresh session.Session (Apply) and a fresh dispatch core
// (SessionDelta), checks both against the makespans the server
// reported, and every sessionBudget deltas times cache.Canonicalize and
// engine.Solve on the materialized state.
func ladderSessions(ctx context.Context, set []*liveSession) (ladder, error) {
	var lad ladder
	sink := obs.New()
	core := newCore(sink)
	defer core.Close()
	spec, _ := engine.Lookup("mpartition")
	p := engine.Params{K: sessionBudget, Workers: 1, Obs: sink}
	for _, ls := range set {
		sess, err := session.New(session.Config{Initial: ls.init.Clone(), MoveBudget: sessionBudget, AutoRebalance: true, Obs: sink})
		if err != nil {
			return lad, err
		}
		st, err := core.SessionCreate(ctx, &dispatch.SessionRequest{
			Instance: &instance.Extended{Instance: *ls.init.Clone()}, MoveBudget: sessionBudget,
		})
		if err != nil {
			return lad, err
		}
		for i := range ls.log {
			req := ls.log[i]
			t0 := time.Now()
			out, err := sess.Apply(ctx, toDelta(req))
			lad.apply = append(lad.apply, micros(time.Since(t0)))
			if err != nil {
				return lad, err
			}
			t0 = time.Now()
			res, err := core.SessionDelta(ctx, st.ID, &req)
			lad.sessionDelta = append(lad.sessionDelta, micros(time.Since(t0)))
			if err != nil {
				return lad, err
			}
			if out.Makespan != ls.makespans[i] || res.Makespan != ls.makespans[i] {
				return lad, fmt.Errorf("ladder: delta %d makespan: session %d, core %d, server %d",
					i, out.Makespan, res.Makespan, ls.makespans[i])
			}
			if i%sessionBudget != 0 {
				continue
			}
			snap, _ := sess.Snapshot()
			ext := instance.Extended{Instance: *snap}
			t0 = time.Now()
			cache.Canonicalize("mpartition", spec.Caps, &ext, p)
			lad.key = append(lad.key, micros(time.Since(t0)))
			t0 = time.Now()
			_, err = engine.Solve(ctx, "mpartition", snap, p)
			lad.engine = append(lad.engine, micros(time.Since(t0)))
			if err != nil {
				return lad, err
			}
		}
	}
	return lad, nil
}

// toDelta maps a wire delta onto the session's typed form, as the
// dispatch core does.
func toDelta(req dispatch.SessionDeltaRequest) session.Delta {
	d := session.Delta{Job: req.Job, Size: req.Size, Cost: req.Cost}
	if req.Proc != nil {
		d.Proc = *req.Proc
	}
	switch req.Op {
	case "arrive":
		d.Op = session.OpArrive
	case "depart":
		d.Op = session.OpDepart
	case "resize":
		d.Op = session.OpResize
	case "proc_add":
		d.Op = session.OpProcAdd
	case "proc_drain":
		d.Op = session.OpProcDrain
	}
	return d
}
