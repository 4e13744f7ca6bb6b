package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/instance"
	"repro/internal/server"
	"repro/internal/verify"
)

// checkSolve verifies one 200 /v1/solve response against its request:
// the assignment is valid for the instance and moves at most k jobs,
// and the reported makespan, moves, lower bound and initial makespan
// match a recomputation. It fills the sample's response fields.
func checkSolve(si *solveInput, body []byte, s *sample) error {
	var resp server.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode solve response: %w", err)
	}
	if resp.Solver != si.solver {
		return fmt.Errorf("solver %q answered for %q", resp.Solver, si.solver)
	}
	rep, err := verify.WithinMoves(si.in, resp.Assign, si.k)
	if err != nil {
		return err
	}
	switch {
	case rep.Makespan != resp.Makespan:
		return fmt.Errorf("reported makespan %d, recomputed %d", resp.Makespan, rep.Makespan)
	case rep.Moves != resp.Moves:
		return fmt.Errorf("reported %d moves, recomputed %d", resp.Moves, rep.Moves)
	case resp.LowerBound != si.lower:
		return fmt.Errorf("reported lower bound %d, recomputed %d", resp.LowerBound, si.lower)
	case resp.InitialMakespan != si.initial:
		return fmt.Errorf("reported initial makespan %d, recomputed %d", resp.InitialMakespan, si.initial)
	case resp.Makespan < si.lower:
		return fmt.Errorf("makespan %d below the lower bound %d", resp.Makespan, si.lower)
	}
	s.queueNS, s.cacheNS, s.solveNS = resp.Timing.QueueNS, resp.Timing.CacheNS, resp.Timing.SolveNS
	s.cache = resp.Cache
	s.moves = resp.Moves
	s.ratio = float64(resp.Makespan) / float64(si.lower)
	return nil
}

// mjob is one job in the session mirror.
type mjob struct {
	id   int
	size int64
	proc int
}

// mirror replays a session's state client-side from the deltas sent
// and the migrations each response reports, and cross-checks every
// response against it.
type mirror struct {
	jobs  []mjob
	slot  map[int]int // job id → index in jobs
	loads []int64
}

// newMirror mirrors a session seeded with in (job ids are indices).
func newMirror(in *instance.Instance) *mirror {
	mr := &mirror{slot: make(map[int]int, in.N()), loads: make([]int64, in.M)}
	for j, job := range in.Jobs {
		mr.add(j, job.Size, in.Assign[j])
	}
	return mr
}

func (mr *mirror) add(id int, size int64, proc int) {
	mr.slot[id] = len(mr.jobs)
	mr.jobs = append(mr.jobs, mjob{id: id, size: size, proc: proc})
	mr.loads[proc] += size
}

// leastLoaded is the lowest-indexed minimum-load processor.
func (mr *mirror) leastLoaded() int {
	best := 0
	for p, l := range mr.loads {
		if l < mr.loads[best] {
			best = p
		}
	}
	return best
}

func (mr *mirror) job(id int) (*mjob, error) {
	i, ok := mr.slot[id]
	if !ok {
		return nil, fmt.Errorf("response names job %d the mirror does not hold", id)
	}
	return &mr.jobs[i], nil
}

// apply folds delta d and its response into the mirror and checks the
// response: forced moves only on a drain and exactly the drained jobs,
// every rebalance move leaving the job's current processor, at most
// budget rebalance moves, and the reported state equal to the mirror's.
func (mr *mirror) apply(d server.SessionDeltaRequest, res *server.SessionDeltaResult, budget int) error {
	if d.Op != "proc_drain" && len(res.Forced) > 0 {
		return fmt.Errorf("%s reported %d forced moves", d.Op, len(res.Forced))
	}
	switch d.Op {
	case "arrive":
		mr.add(d.Job, d.Size, *d.Proc)
	case "depart":
		i := mr.slot[d.Job]
		mr.loads[mr.jobs[i].proc] -= mr.jobs[i].size
		last := len(mr.jobs) - 1
		mr.jobs[i] = mr.jobs[last]
		mr.slot[mr.jobs[i].id] = i
		mr.jobs = mr.jobs[:last]
		delete(mr.slot, d.Job)
	case "resize":
		j := &mr.jobs[mr.slot[d.Job]]
		mr.loads[j.proc] += d.Size - j.size
		j.size = d.Size
	case "proc_add":
		mr.loads = append(mr.loads, 0)
	case "proc_drain":
		if err := mr.drain(*d.Proc, res.Forced); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown delta op %q", d.Op)
	}
	if len(res.Moves) > budget {
		return fmt.Errorf("%d rebalance moves exceed the budget of %d", len(res.Moves), budget)
	}
	for _, mv := range res.Moves {
		j, err := mr.job(mv.Job)
		if err != nil {
			return err
		}
		if j.proc != mv.From || mv.To < 0 || mv.To >= len(mr.loads) {
			return fmt.Errorf("move of job %d %d→%d, mirror has it on %d of %d", mv.Job, mv.From, mv.To, j.proc, len(mr.loads))
		}
		mr.loads[j.proc] -= j.size
		mr.loads[mv.To] += j.size
		j.proc = mv.To
	}
	return mr.matches(res.SessionState)
}

// drain removes processor p: processors above it renumber down, and the
// forced moves (To in post-drain numbering) must rehome exactly the
// jobs p held.
func (mr *mirror) drain(p int, forced []server.SessionMove) error {
	const homeless = -1
	for i := range mr.jobs {
		switch j := &mr.jobs[i]; {
		case j.proc == p:
			j.proc = homeless
		case j.proc > p:
			j.proc--
		}
	}
	mr.loads = append(mr.loads[:p], mr.loads[p+1:]...)
	for _, mv := range forced {
		j, err := mr.job(mv.Job)
		if err != nil {
			return err
		}
		if j.proc != homeless || mv.From != p || mv.To < 0 || mv.To >= len(mr.loads) {
			return fmt.Errorf("forced move of job %d %d→%d does not rehome a job of drained processor %d", mv.Job, mv.From, mv.To, p)
		}
		j.proc = mv.To
		mr.loads[mv.To] += j.size
	}
	for _, j := range mr.jobs {
		if j.proc == homeless {
			return fmt.Errorf("drain of processor %d left job %d without a forced move", p, j.id)
		}
	}
	return nil
}

// matches compares a reported session state with the mirror.
func (mr *mirror) matches(st server.SessionState) error {
	if st.N != len(mr.jobs) || st.M != len(mr.loads) || len(st.Loads) != len(mr.loads) {
		return fmt.Errorf("reported n=%d m=%d (%d loads), mirror n=%d m=%d", st.N, st.M, len(st.Loads), len(mr.jobs), len(mr.loads))
	}
	var makespan, total, maxSize int64
	for p, l := range mr.loads {
		if st.Loads[p] != l {
			return fmt.Errorf("processor %d load reported %d, mirror %d", p, st.Loads[p], l)
		}
		makespan = max(makespan, l)
		total += l
	}
	for _, j := range mr.jobs {
		maxSize = max(maxSize, j.size)
	}
	lower := int64(0)
	if len(mr.jobs) > 0 {
		lower = max((total+int64(len(mr.loads))-1)/int64(len(mr.loads)), maxSize)
	}
	if st.Makespan != makespan || st.LowerBound != lower {
		return fmt.Errorf("reported makespan %d lower bound %d, mirror %d and %d", st.Makespan, st.LowerBound, makespan, lower)
	}
	return nil
}
