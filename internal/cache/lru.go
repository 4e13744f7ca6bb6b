package cache

import (
	"container/list"

	"repro/internal/instance"
)

// entryOverhead is the fixed number of bytes charged to every cache
// entry against Config.MaxBytes, on top of 4 B per int32 of its move
// list: an estimate of the entry struct, its list element and its map
// slot.
const entryOverhead = 256

// entry is one cached solver outcome: the scalar metrics plus the move
// list in canonical coordinates (see encodeMoves).
type entry struct {
	key    Key
	solver string            // for per-solver eviction counters
	sol    instance.Solution // Makespan, Moves and MoveCost; Assign is nil
	moves  []int32           // (canonical slot, processor) pairs
	err    error             // nil, or a deterministic semantic error (ErrInfeasible)
}

// solution replays the entry onto in, the request can keys, writing
// the assignment into dst as Canonical.applyMoves does.
func (e *entry) solution(dst []int, can Canonical, in *instance.Instance) instance.Solution {
	sol := e.sol
	sol.Assign = can.applyMoves(dst, in, e.moves)
	return sol
}

// charge is the entry's size against the byte bound.
func (e *entry) charge() int64 { return entryOverhead + 4*int64(len(e.moves)) }

// lru is a least-recently-used map of cache entries bounded both in
// entry count and in charged bytes. It is not safe for concurrent use;
// Cache serializes access under its mutex. A nil *lru, a disabled
// cache's, holds nothing: get misses and len is 0.
type lru struct {
	max      int
	maxBytes int64
	bytes    int64      // sum of the held entries' charges
	order    *list.List // front = most recently used; values are *entry
	byKey    map[Key]*list.Element
}

func newLRU(max int, maxBytes int64) *lru {
	return &lru{max: max, maxBytes: maxBytes, order: list.New(), byKey: make(map[Key]*list.Element)}
}

// get returns the entry under key and marks it most recently used.
func (l *lru) get(key Key) (*entry, bool) {
	if l == nil {
		return nil, false
	}
	el, ok := l.byKey[key]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*entry), true
}

// add inserts (or refreshes) an entry and returns the entries evicted
// to stay within both bounds, whichever binds first. An entry whose
// charge alone exceeds the byte bound is not stored at all.
func (l *lru) add(e *entry) []*entry {
	if e.charge() > l.maxBytes {
		return nil
	}
	if el, ok := l.byKey[e.key]; ok {
		l.bytes += e.charge() - el.Value.(*entry).charge()
		el.Value = e
		l.order.MoveToFront(el)
	} else {
		l.byKey[e.key] = l.order.PushFront(e)
		l.bytes += e.charge()
	}
	var evicted []*entry
	for l.order.Len() > l.max || l.bytes > l.maxBytes {
		back := l.order.Back()
		ev := back.Value.(*entry)
		l.order.Remove(back)
		delete(l.byKey, ev.key)
		l.bytes -= ev.charge()
		evicted = append(evicted, ev)
	}
	return evicted
}

// len returns the number of cached entries.
func (l *lru) len() int {
	if l == nil {
		return 0
	}
	return l.order.Len()
}
