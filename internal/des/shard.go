package des

import (
	"container/list"

	"repro/internal/ring"
)

// keyLRU models a shard's canonical-key solution cache: the same
// size-bounded recency semantics as internal/cache's LRU, over abstract
// key ranks instead of solutions. A negative capacity disables the
// cache entirely (every lookup misses, nothing is stored), matching the
// dispatch core's CacheEntries < 0 mode.
type keyLRU struct {
	cap int
	ll  *list.List
	m   map[int]*list.Element
}

func newKeyLRU(capacity int) *keyLRU {
	return &keyLRU{cap: capacity, ll: list.New(), m: make(map[int]*list.Element)}
}

func (c *keyLRU) disabled() bool { return c.cap < 0 }

// get reports whether rank is cached, touching it to the front.
func (c *keyLRU) get(rank int) bool {
	if c.cap < 0 {
		return false
	}
	e, ok := c.m[rank]
	if ok {
		c.ll.MoveToFront(e)
	}
	return ok
}

// contains is a read-only probe (the /v1/peek model: peers answer
// without reordering their own recency list — close enough for the
// fill-window dynamics the simulator studies).
func (c *keyLRU) contains(rank int) bool {
	_, ok := c.m[rank]
	return ok
}

// add inserts rank, evicting the least-recently-used entry when full;
// it returns the number of evictions (0 or 1).
func (c *keyLRU) add(rank int) int {
	if c.cap < 0 {
		return 0
	}
	if e, ok := c.m[rank]; ok {
		c.ll.MoveToFront(e)
		return 0
	}
	c.m[rank] = c.ll.PushFront(rank)
	if c.ll.Len() <= c.cap {
		return 0
	}
	last := c.ll.Back()
	c.ll.Remove(last)
	delete(c.m, last.Value.(int))
	return 1
}

func (c *keyLRU) clear() {
	c.ll.Init()
	clear(c.m)
}

func (c *keyLRU) len() int { return c.ll.Len() }

// request is one simulated solve request.
type request struct {
	id     int
	rank   int   // canonical-key rank (the duplicate identity)
	arrive int64 // arrival time
	start  int64 // service start (== arrive when a worker was free)
}

// outcome classifies how a flight was served; the values mirror the
// real responses' "cache" field plus the peer-fill path.
type outcome uint8

const (
	outHit outcome = iota
	outMiss
	outPeer // a miss served from the previous owner's cache
)

func (o outcome) String() string {
	switch o {
	case outHit:
		return "hit"
	case outMiss:
		return "miss"
	case outPeer:
		return "peer"
	}
	return "?"
}

// flight is one service occupancy: a cache hit carries exactly its own
// request, while a miss is a single-flight — later arrivals for the
// same rank attach as waiters (each still holding a worker, as a
// coalesced solve holds its slot in the real dispatch core) and all
// complete together.
type flight struct {
	rank    int
	out     outcome
	epoch   uint64 // shard epoch at creation; kills invalidate by bumping
	waiters []request
}

// ShardStats is one shard's tally, reported in Result.Shards.
type ShardStats struct {
	Name         string `json:"name"`
	Routed       int64  `json:"routed"`   // arrivals routed here (incl. failover traffic)
	OK           int64  `json:"ok"`       // requests completed
	Rejected     int64  `json:"rejected"` // admission-queue 429s
	Lost         int64  `json:"lost"`     // queued/in-flight work destroyed by a kill
	Hits         int64  `json:"hits"`
	Misses       int64  `json:"misses"` // includes peer-filled misses
	Coalesced    int64  `json:"coalesced"`
	PeerFillHits int64  `json:"peer_fill_hits"`
	PeerFillMiss int64  `json:"peer_fill_misses"`
	Evictions    int64  `json:"evictions"`
	CacheEnd     int64  `json:"cache_end"` // live cache entries at end of run
	PostJoinMiss int64  `json:"post_join_misses"`
	PostJoinHits int64  `json:"post_join_hits"`
}

// shard is one simulated daemon process.
type shard struct {
	idx   int
	name  string
	up    bool
	epoch uint64 // bumped on kill and join; stale completion events no-op

	busy    int       // requests in service (hits, flight owners, and coalesced waiters)
	waiting []request // bounded FIFO admission queue
	flights map[int]*flight

	cache *keyLRU

	// Peer-fill state, armed when the router's ring update first
	// includes this shard: fillRing is the healthy ring before the
	// join (whose owners held this shard's keys) and fillUntil bounds
	// the window.
	fillRing  *ring.Ring
	fillUntil int64
	joinedAt  int64 // ring-update time of the latest join; -1 if up from the start

	st ShardStats
}
