// Package des is a seeded, deterministic discrete-event simulator of
// the whole rebalanced serving fleet: open arrivals (Poisson or Gamma
// interarrivals) drawing requests from a Zipf-distributed canonical-key
// population, per-shard bounded admission queues with 429 fail-fast,
// single-flight coalescing, size-bounded per-shard solution caches,
// consistent-hash placement over the real internal/ring, router
// failover to ring successors, peer cache fill after a shard joins, and
// shard kill/recover dynamics — with engine service times sampled from
// the committed BENCH.json, so simulated capacity numbers rest on
// measured solver cost.
//
// The simulator exists because CI cannot run a million users against a
// real fleet, but it can run a million simulated arrivals in tens of
// milliseconds: serving policies (queue bounds, cache sizes, shard
// counts, fill windows) get validated here — under the hypothesis
// process in hypotheses/README.md — before anyone touches the daemon.
// It deliberately complements internal/sim, which compares *solver
// policies* on closed instance sets; des models the *serving layer*
// around the solvers and treats each solve as a sampled service time
// (DESIGN.md §14 draws the full boundary).
//
// Everything is virtual-time: the event loop advances an int64
// nanosecond clock through a binary heap of events ordered by
// (time, insertion sequence) and never reads a wall clock, so a
// scenario and a seed reproduce the event log byte for byte — the
// property the deterministic hypothesis class and the replay tests
// pin.
package des

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/ring"
	"repro/internal/workload"
)

// Stream-splitting constants: each random surface (arrival gaps, key
// popularity, service noise) draws from its own splitmix64 stream
// derived from the scenario seed, so variants that change one surface
// (say, the queue bound) keep every other draw identical — common
// random numbers, the variance-reduction backbone of the lab's
// paired comparisons.
const (
	keyStreamSalt     = 0x9e3779b97f4a7c15
	serviceStreamSalt = 0xbf58476d1ce4e5b9
)

type evKind uint8

const (
	evArrival evKind = iota // next open arrival
	evDone                  // a shard flight completes
	evFleet                 // scheduled kill/join
	evRing                  // the router's probe observes membership
)

type event struct {
	at    int64
	seq   uint64 // insertion order; ties on at resolve deterministically
	kind  evKind
	shard int     // evDone
	fl    *flight // evDone
	fev   FleetEvent
}

type sim struct {
	cfg Scenario
	svc serviceModel

	arrivalRNG *workload.RNG
	serviceRNG *workload.RNG
	inter      workload.Interarrival
	zipf       *workload.Zipf

	points  []uint64
	shards  []*shard
	byName  map[string]*shard
	healthy *ring.Ring

	heap  []event
	seq   uint64
	clock int64

	nextID int // next arrival's request id

	res      Result
	sojourns []int64
	waits    []int64
	log      *strings.Builder
}

// Run executes the scenario to completion (all arrivals generated and
// every queue drained) and returns the tally.
func Run(cfg Scenario) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	svc, err := newServiceModel(cfg)
	if err != nil {
		return nil, err
	}
	dist, err := workload.ParseArrivalDist(cfg.Arrival)
	if err != nil {
		return nil, err
	}
	s := &sim{
		cfg:        cfg,
		svc:        svc,
		arrivalRNG: workload.NewRNG(cfg.Seed),
		serviceRNG: workload.NewRNG(cfg.Seed ^ serviceStreamSalt),
		inter:      workload.Interarrival{Dist: dist, Rate: cfg.Rate, CV: cfg.ArrivalCV},
		byName:     make(map[string]*shard, cfg.Shards),
	}
	if cfg.KeyRanks == nil {
		s.zipf = workload.NewZipf(workload.NewRNG(cfg.Seed^keyStreamSalt), cfg.ZipfS, cfg.Keys)
	}
	if cfg.RecordLog {
		s.log = &strings.Builder{}
	}
	s.points = HashPoints(cfg.Keys)
	down := make(map[int]bool, len(cfg.InitialDown))
	for _, i := range cfg.InitialDown {
		down[i] = true
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{
			idx:      i,
			name:     ShardName(i),
			up:       !down[i],
			flights:  make(map[int]*flight),
			cache:    newKeyLRU(cfg.CacheEntries),
			joinedAt: -1,
		}
		sh.st.Name = sh.name
		s.shards[i] = sh
		s.byName[sh.name] = sh
	}
	s.rebuildRing()

	for _, ev := range cfg.Events {
		s.push(event{at: ev.AtMS * 1e6, kind: evFleet, fev: ev})
	}
	if cfg.Requests > 0 {
		s.push(event{at: s.inter.NextNS(s.arrivalRNG), kind: evArrival})
	}

	for len(s.heap) > 0 {
		e := s.pop()
		s.clock = e.at
		switch e.kind {
		case evArrival:
			s.arrive()
		case evDone:
			s.complete(e.shard, e.fl)
		case evFleet:
			s.fleetEvent(e.fev)
		case evRing:
			s.ringUpdate()
		}
	}

	s.res.EndNS = s.clock
	s.res.Sojourn = summarize(s.sojourns)
	s.res.QueueWait = summarize(s.waits)
	s.res.Shards = make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		sh.st.CacheEnd = int64(sh.cache.len())
		s.res.Shards[i] = sh.st
	}
	if s.log != nil {
		s.res.Log = s.log.String()
	}
	return &s.res, nil
}

// HashPoints is the rank→ring-point map: rank r's canonical key is
// modeled as the ring hash of its 8-byte encoding.
func HashPoints(keys int) []uint64 {
	pts := make([]uint64, keys)
	var buf [8]byte
	for r := range pts {
		binary.BigEndian.PutUint64(buf[:], uint64(r))
		pts[r] = ring.Hash(buf[:])
	}
	return pts
}

func (s *sim) rebuildRing() {
	up := make([]string, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.up {
			up = append(up, sh.name)
		}
	}
	s.healthy = ring.New(up, s.cfg.VNodes)
}

// ---- event heap (min on (at, seq)) ----

func evLess(a, b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (s *sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *sim) pop() event {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s.heap) && evLess(s.heap[l], s.heap[small]) {
			small = l
		}
		if r < len(s.heap) && evLess(s.heap[r], s.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top
}

func (s *sim) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(s.log, format, args...)
	}
}

// ---- arrivals and routing ----

func (s *sim) arrive() {
	id := s.nextID
	s.nextID++
	if s.nextID < s.cfg.Requests {
		s.push(event{at: s.clock + s.inter.NextNS(s.arrivalRNG), kind: evArrival})
	}
	var rank int
	if s.cfg.KeyRanks != nil {
		rank = s.cfg.KeyRanks[id]
	} else {
		rank = s.zipf.Sample()
	}
	s.res.Arrivals++

	pt := s.points[rank]
	owner, ok := s.healthy.Owner(pt)
	if !ok {
		s.res.Dropped++
		s.logf("A t=%d r=%d k=%d DROP\n", s.clock, id, rank)
		return
	}
	sh := s.byName[owner]
	if !sh.up {
		// The router has not probed the death yet: transport error,
		// rotate to the first healthy ring successor (the real
		// router's failover path).
		sh = nil
		for _, name := range s.healthy.Successors(pt, len(s.shards)) {
			if cand := s.byName[name]; cand.up {
				sh = cand
				break
			}
		}
		if sh == nil {
			s.res.Dropped++
			s.logf("A t=%d r=%d k=%d DROP\n", s.clock, id, rank)
			return
		}
		s.res.Failovers++
		s.logf("A t=%d r=%d k=%d fo=%s->%s\n", s.clock, id, rank, owner, sh.name)
	}
	sh.st.Routed++
	req := request{id: id, rank: rank, arrive: s.clock}
	switch {
	case sh.busy < s.cfg.Workers:
		s.logf("A t=%d r=%d k=%d s=%s\n", s.clock, id, rank, sh.name)
		s.startService(sh, req)
	case len(sh.waiting) < s.cfg.QueueDepth:
		sh.waiting = append(sh.waiting, req)
		s.logf("A t=%d r=%d k=%d s=%s q=%d\n", s.clock, id, rank, sh.name, len(sh.waiting))
	default:
		sh.st.Rejected++
		s.res.Rejected++
		s.logf("A t=%d r=%d k=%d s=%s REJ\n", s.clock, id, rank, sh.name)
	}
}

// ---- service ----

func (s *sim) startService(sh *shard, req request) {
	req.start = s.clock
	sh.busy++
	if sh.cache.get(req.rank) {
		f := &flight{rank: req.rank, out: outHit, epoch: sh.epoch, waiters: []request{req}}
		s.push(event{at: s.clock + s.svc.hitDur(), kind: evDone, shard: sh.idx, fl: f})
		return
	}
	if !sh.cache.disabled() {
		if f := sh.flights[req.rank]; f != nil {
			// Single-flight: attach as a waiter. The waiter still holds
			// its worker (as a coalesced solve holds its slot in the
			// real dispatch core) and completes with the flight.
			f.waiters = append(f.waiters, req)
			s.logf("C t=%d r=%d k=%d s=%s\n", s.clock, req.id, req.rank, sh.name)
			return
		}
	}
	out := outMiss
	var dur int64
	if s.clock < sh.fillUntil && sh.fillRing != nil {
		if owner, ok := sh.fillRing.Owner(s.points[req.rank]); ok && owner != sh.name {
			if peer := s.byName[owner]; peer.up && peer.cache.contains(req.rank) {
				out = outPeer
				dur = s.svc.peerDur()
			} else {
				sh.st.PeerFillMiss++
				s.res.PeerFillMisses++
			}
		}
	}
	if out == outMiss {
		dur = s.svc.missDur(s.serviceRNG)
	}
	f := &flight{rank: req.rank, out: out, epoch: sh.epoch, waiters: []request{req}}
	if !sh.cache.disabled() {
		sh.flights[req.rank] = f
	}
	s.push(event{at: s.clock + dur, kind: evDone, shard: sh.idx, fl: f})
}

func (s *sim) complete(shardIdx int, f *flight) {
	sh := s.shards[shardIdx]
	if !sh.up || f.epoch != sh.epoch {
		return // the shard died mid-flight; the work was tallied as lost
	}
	sh.busy -= len(f.waiters)
	if f.out != outHit {
		delete(sh.flights, f.rank)
		ev := int64(sh.cache.add(f.rank))
		sh.st.Evictions += ev
		s.res.Evictions += ev
	}
	postJoin := sh.joinedAt >= 0 && f.waiters[0].start >= sh.joinedAt
	switch f.out {
	case outHit:
		sh.st.Hits++
		s.res.Hits++
		if postJoin {
			sh.st.PostJoinHits++
		}
	case outMiss:
		sh.st.Misses++
		s.res.Misses++
		if postJoin {
			sh.st.PostJoinMiss++
		}
	case outPeer:
		sh.st.Misses++
		s.res.Misses++
		sh.st.PeerFillHits++
		s.res.PeerFillHits++
	}
	if n := int64(len(f.waiters)) - 1; f.out != outHit && n > 0 {
		sh.st.Coalesced += n
		s.res.Coalesced += n
	}
	for _, w := range f.waiters {
		sh.st.OK++
		s.res.OK++
		s.sojourns = append(s.sojourns, s.clock-w.arrive)
		s.waits = append(s.waits, w.start-w.arrive)
	}
	s.logf("D t=%d s=%s k=%d %s n=%d\n", s.clock, sh.name, f.rank, f.out, len(f.waiters))
	for sh.busy < s.cfg.Workers && len(sh.waiting) > 0 {
		req := sh.waiting[0]
		sh.waiting = sh.waiting[1:]
		s.startService(sh, req)
	}
}

// ---- fleet dynamics ----

func (s *sim) fleetEvent(ev FleetEvent) {
	sh := s.shards[ev.Shard]
	switch ev.Kind {
	case "kill":
		if !sh.up {
			return
		}
		sh.up = false
		sh.epoch++
		lost := int64(len(sh.waiting) + sh.busy)
		sh.st.Lost += lost
		s.res.Lost += lost
		sh.waiting = nil
		sh.busy = 0
		clear(sh.flights)
		sh.cache.clear()
		sh.fillRing = nil
		sh.fillUntil = 0
		s.logf("F t=%d kill %s lost=%d\n", s.clock, sh.name, lost)
	case "join":
		if sh.up {
			return
		}
		sh.up = true
		sh.epoch++
		sh.cache.clear()
		s.logf("F t=%d join %s\n", s.clock, sh.name)
	}
	s.push(event{at: s.clock + s.cfg.ProbeDelayMS*1e6, kind: evRing})
}

// ringUpdate is the router's readyz prober observing the current
// membership: the healthy ring is rebuilt, and any shard entering the
// ring arms its peer-fill window against the previous ring — whose
// owners are exactly the shards that served its keys while it was
// away.
func (s *sim) ringUpdate() {
	old := s.healthy
	s.rebuildRing()
	for _, sh := range s.shards {
		if sh.up && !old.Has(sh.name) && s.healthy.Has(sh.name) {
			sh.joinedAt = s.clock
			if s.cfg.FillWindowMS > 0 {
				sh.fillRing = old
				sh.fillUntil = s.clock + s.cfg.FillWindowMS*1e6
			}
		}
	}
	s.logf("R t=%d members=%s\n", s.clock, strings.Join(s.healthy.Members(), ","))
}
