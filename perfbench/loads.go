package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/instance"
	"repro/internal/server"
	"repro/internal/workload"
)

// load is one workload's input side: it generates the inputs from the
// seed, readies per-stack state, and hands the generator its ops.
type load interface {
	// open readies per-stack state (sessions) on a fresh stack; it is
	// part of the timed set-up.
	open(ctx context.Context, g *gen) error
	// next returns the op closed-loop client c issues next in phase ph,
	// or false once the phase's inputs are exhausted.
	next(ph phase, c int) (op, bool)
	// openOp returns open-loop op i; it is called on sender i%senders.
	openOp(i int) op
	// release drops the generator's inputs before the heap is measured.
	release()
}

// spec is a workload's fixed shape: its stack, its frozen open-loop
// rate, and how to build its inputs.
type spec struct {
	name   string
	shards int
	router bool
	// rate is the open-loop Poisson rate in ops/s, frozen at a quarter
	// to a third of the closed-loop capacity measured on a 2-vCPU
	// linux/amd64 host: at half capacity the p99 latency there swung by
	// more than half from run to run.
	rate float64
	make func(seed uint64, seconds float64, rate float64) load
}

var specs = []spec{
	{
		name: "hot-fleet", shards: 2, router: true, rate: 650,
		make: newHotLoad,
	},
	{
		name: "cold-solve", shards: 1, rate: 160,
		make: newColdLoad,
	},
	{
		name: "session-churn", shards: 1, rate: 4000,
		make: newSessionLoad,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// mix derives a stream seed from the workload seed, a stream tag, and
// an index (splitmix64 finalizer), so streams never overlap.
func mix(seed, tag, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 ^ tag<<48 ^ i
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Stream tags for mix.
const (
	tagKeys uint64 = iota + 1
	tagWarm
	tagClosed
	tagOpen
	tagSolver
	tagSession
)

// solveInput is one pre-encoded solve request plus what the checker
// needs to verify its response.
type solveInput struct {
	body    []byte
	in      *instance.Instance
	solver  string
	k       int
	lower   int64
	initial int64
}

func newSolveInput(solver string, k int, in *instance.Instance) *solveInput {
	req := server.SolveRequest{Solver: solver, K: k}
	req.Instance.Instance = *in
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("encode generated request: %v", err)) // generated inputs always encode
	}
	return &solveInput{body: body, in: in, solver: solver, k: k, lower: in.LowerBound(), initial: in.InitialMakespan()}
}

// op is the request for si; input is its index in a fixed input set,
// or -1.
func (si *solveInput) op(input int) op {
	return op{path: "/v1/solve", body: si.body, input: input, check: func(body []byte, s *sample) error {
		return checkSolve(si, body, s)
	}}
}

// hotLoad is hot-fleet: a Zipf(1.1) key stream over a fixed working set
// of 256 mpartition requests (n=200, m=8, k=10).
type hotLoad struct {
	keys []*solveInput
	seq  [3][]int // key stream per phase
	pos  [3]atomic.Int64
}

const (
	hotKeys  = 256
	hotZipfS = 1.1
)

func newHotLoad(seed uint64, seconds, rate float64) load {
	l := &hotLoad{}
	for i := 0; i < hotKeys; i++ {
		in := workload.Generate(workload.Config{
			N: 200, M: 8, MaxSize: 1000,
			Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Costs: workload.CostUnit,
			Seed: mix(seed, tagKeys, uint64(i)),
		})
		l.keys = append(l.keys, newSolveInput("mpartition", 10, in))
	}
	// Warm-up touches every key once, in order, then follows the law.
	warm := make([]int, hotKeys)
	for i := range warm {
		warm[i] = i
	}
	room := int(4000 * seconds) // far above any closed-loop capacity
	l.seq[phaseWarm] = append(warm, workload.ZipfSequence(mix(seed, tagWarm, 0), hotZipfS, hotKeys, room)...)
	l.seq[phaseClosed] = workload.ZipfSequence(mix(seed, tagClosed, 0), hotZipfS, hotKeys, room)
	l.seq[phaseOpen] = workload.ZipfSequence(mix(seed, tagOpen, 0), hotZipfS, hotKeys, openCount(rate, seconds))
	return l
}

func (l *hotLoad) open(context.Context, *gen) error { return nil }

func (l *hotLoad) next(ph phase, _ int) (op, bool) {
	i := l.pos[ph].Add(1) - 1
	if i >= int64(len(l.seq[ph])) {
		return op{}, false
	}
	k := l.seq[ph][i]
	return l.keys[k].op(k), true
}

func (l *hotLoad) openOp(i int) op {
	k := l.seq[phaseOpen][i]
	return l.keys[k].op(k)
}

func (l *hotLoad) release() { l.keys, l.seq = nil, [3][]int{} }

// coldLoad is cold-solve: every request a distinct instance with
// n=2000 jobs on m=16 processors, 70% mpartition and 30% greedy, both
// with k=50. Requests are drawn over coldBases generated instances and
// made distinct by a unique relocation cost on job 0: the cost is part
// of the cache key, so every request misses, while the k-move solvers
// ignore costs, so each request's engine work is its base instance's.
// Splicing the cost into the base's encoding keeps the generator's own
// CPU per request to a copy of the body.
type coldLoad struct {
	seed  uint64
	bases []coldBase
	pos   [3]atomic.Int64
}

// coldBase is one generated instance, encoded around job 0's cost.
type coldBase struct {
	in             *instance.Instance
	lower, initial int64
	head, tail     []byte // the instance JSON before and after job 0's cost
}

const coldBases = 256

func newColdLoad(seed uint64, _, _ float64) load {
	l := &coldLoad{seed: seed}
	for b := 0; b < coldBases; b++ {
		in := workload.Generate(workload.Config{
			N: 2000, M: 16, MaxSize: 1000,
			Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Costs: workload.CostUnit,
			Seed: mix(seed, tagKeys, uint64(b)),
		})
		enc, err := json.Marshal(in)
		if err != nil {
			panic(fmt.Sprintf("encode generated instance: %v", err)) // generated inputs always encode
		}
		cost := []byte(`"cost":1`)
		at := bytes.Index(enc, cost) + len(cost) - 1 // job 0's cost digit
		l.bases = append(l.bases, coldBase{
			in: in, lower: in.LowerBound(), initial: in.InitialMakespan(),
			head: enc[:at], tail: enc[at+1:],
		})
	}
	return l
}

// input is request j of phase ph: base j%coldBases, a cost on job 0
// unique across phases, and a solver drawn 70/30.
func (l *coldLoad) input(ph phase, j int) *solveInput {
	base := &l.bases[j%coldBases]
	solver := "mpartition"
	if workload.NewRNG(mix(l.seed, tagSolver+uint64(ph)<<8, uint64(j))).Float64() >= 0.7 {
		solver = "greedy"
	}
	body := make([]byte, 0, len(base.head)+len(base.tail)+64)
	body = append(body, `{"solver":"`...)
	body = append(body, solver...)
	body = append(body, `","k":50,"instance":`...)
	body = append(body, base.head...)
	body = strconv.AppendInt(body, 2+int64(j/coldBases)*3+int64(ph), 10)
	body = append(body, base.tail...)
	body = append(body, '}')
	return &solveInput{body: body, in: base.in, solver: solver, k: 50, lower: base.lower, initial: base.initial}
}

func (l *coldLoad) open(context.Context, *gen) error { return nil }

func (l *coldLoad) next(ph phase, _ int) (op, bool) {
	return l.input(ph, int(l.pos[ph].Add(1)-1)).op(-1), true
}

func (l *coldLoad) openOp(i int) op { return l.input(phaseOpen, i).op(-1) }

func (l *coldLoad) release() { l.bases = nil }

// openCount is the number of open-loop arrivals the schedule holds:
// enough for the phase at rate, with room for Poisson variation.
func openCount(rate, seconds float64) int {
	return int(math.Ceil(rate*openShare*seconds*1.5)) + 64
}

// sessionLoad is session-churn: 8 sessions per measured phase, each
// seeded with n=400 jobs on m=8 processors with a move budget of 8 per
// delta, driven by a seeded delta stream over /v1/session.
type sessionLoad struct {
	seed uint64
	// closedSet serves warm-up and the closed loop (client c drives the
	// sessions with index%senders == c); openSet serves the open loop,
	// fresh, so its delta streams depend on the seed alone.
	closedSet, openSet [sessionsPerSet]*liveSession
	rr                 [senders]int
}

const (
	sessionsPerSet = 8
	sessionM       = 8
	sessionJobs    = 400
	sessionBudget  = 8
	sessionMaxSize = 1000
)

func newSessionLoad(seed uint64, _, _ float64) load {
	l := &sessionLoad{seed: seed}
	for i := 0; i < sessionsPerSet; i++ {
		l.closedSet[i] = newLiveSession(seed, uint64(i))
		l.openSet[i] = newLiveSession(seed, uint64(sessionsPerSet+i))
		l.openSet[i].record = true
	}
	return l
}

func (l *sessionLoad) open(ctx context.Context, g *gen) error {
	for _, set := range [][sessionsPerSet]*liveSession{l.closedSet, l.openSet} {
		for _, ls := range set {
			if err := ls.open(ctx, g); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *sessionLoad) next(_ phase, c int) (op, bool) {
	per := sessionsPerSet / senders
	ls := l.closedSet[c+senders*(l.rr[c]%per)]
	l.rr[c]++
	return ls.nextOp(), true
}

func (l *sessionLoad) openOp(i int) op { return l.openSet[i%sessionsPerSet].nextOp() }

func (l *sessionLoad) release() {}

// liveSession is one server-side session and the generator's mirror of
// it. It is driven by one sender at a time.
type liveSession struct {
	seed     uint64
	init     *instance.Instance
	openBody []byte
	id       string
	mirror   *mirror
	rng      *workload.RNG
	nextJob  int
	record   bool
	// With record set, the applied deltas and the makespan after each,
	// for the ladder pass to replay.
	log       []server.SessionDeltaRequest
	makespans []int64
}

func newLiveSession(seed, idx uint64) *liveSession {
	in := workload.Generate(workload.Config{
		N: sessionJobs, M: sessionM, MaxSize: sessionMaxSize,
		Sizes: workload.SizeZipf, Placement: workload.PlaceSkewed, Costs: workload.CostUnit,
		Seed: mix(seed, tagSession, idx),
	})
	body, err := json.Marshal(server.SessionRequest{Instance: &instance.Extended{Instance: *in}, MoveBudget: sessionBudget})
	if err != nil {
		panic(fmt.Sprintf("encode generated session: %v", err)) // generated inputs always encode
	}
	return &liveSession{seed: mix(seed, tagSession^0xff, idx), init: in, openBody: body}
}

// open creates the session on the server and resets the mirror and the
// delta stream, so every set-up starts the same stream.
func (ls *liveSession) open(ctx context.Context, g *gen) error {
	s := sample{rid: "setup"}
	var st server.SessionState
	g.issue(ctx, time.Now(), op{path: "/v1/session", body: ls.openBody, input: -1, check: func(body []byte, _ *sample) error {
		return json.Unmarshal(body, &st)
	}}, &s)
	if s.err != nil {
		return fmt.Errorf("open session: %w", s.err)
	}
	ls.id = st.ID
	ls.mirror = newMirror(ls.init)
	if err := ls.mirror.matches(st); err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	ls.rng = workload.NewRNG(ls.seed)
	ls.nextJob = ls.init.N()
	ls.log, ls.makespans = nil, nil
	return nil
}

// nextOp draws the next delta of the stream from the mirror's state.
// Arrivals and departures are equally likely, so the job count random-
// walks around its seed size; processors are added below 12 and
// drained above 4.
func (ls *liveSession) nextOp() op {
	mr, rng := ls.mirror, ls.rng
	var d server.SessionDeltaRequest
	roll := rng.Intn(100)
	switch {
	case len(mr.jobs) == 0 || roll < 30:
		p := mr.leastLoaded()
		d = server.SessionDeltaRequest{Op: "arrive", Job: ls.nextJob, Size: 1 + rng.Int63n(sessionMaxSize), Cost: 1, Proc: &p}
		ls.nextJob++
	case roll < 60:
		d = server.SessionDeltaRequest{Op: "depart", Job: mr.jobs[rng.Intn(len(mr.jobs))].id}
	case roll >= 92 && roll < 96 && len(mr.loads) < 12:
		d = server.SessionDeltaRequest{Op: "proc_add"}
	case roll >= 96 && len(mr.loads) > 4:
		p := rng.Intn(len(mr.loads))
		d = server.SessionDeltaRequest{Op: "proc_drain", Proc: &p}
	default:
		d = server.SessionDeltaRequest{Op: "resize", Job: mr.jobs[rng.Intn(len(mr.jobs))].id, Size: 1 + rng.Int63n(sessionMaxSize)}
	}
	body, err := json.Marshal(d)
	if err != nil {
		panic(fmt.Sprintf("encode delta: %v", err)) // plain struct always encodes
	}
	return op{path: "/v1/session/" + ls.id + "/delta", body: body, input: -1, check: func(body []byte, s *sample) error {
		var res server.SessionDeltaResult
		if err := json.Unmarshal(body, &res); err != nil {
			return fmt.Errorf("decode delta result: %w", err)
		}
		if err := mr.apply(d, &res, sessionBudget); err != nil {
			return err
		}
		s.moves = len(res.Forced) + len(res.Moves)
		s.rebalanced = res.Rebalanced
		s.ratio = 1
		if res.LowerBound > 0 {
			s.ratio = float64(res.Makespan) / float64(res.LowerBound)
		}
		if ls.record {
			ls.log = append(ls.log, d)
			ls.makespans = append(ls.makespans, res.Makespan)
		}
		return nil
	}}
}
