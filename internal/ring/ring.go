// Package ring is the consistent-hash ring behind the rebalanced fleet:
// it maps 64-bit keys (the serving layer uses the first 8 bytes of the
// canonical cache key, cache.Key.Point) onto a set of named members —
// shard daemons — so that every canonical solve request has exactly one
// owning shard and membership changes move only the keys they must.
//
// The ring itself is a bounded-movement rebalancing structure, the
// serving-layer mirror of the paper's k-relocation constraint: each
// member projects VNodes pseudo-random points onto the 2^64 circle and
// a key belongs to the first point at or after it (wrapping). Adding a
// member therefore only moves keys onto the new member (≈1/(n+1) of
// them, smoothed by the virtual nodes), and removing one only moves the
// keys it owned — every other key's owner is untouched. Those two exact
// properties are pinned by the package tests.
//
// Rings are immutable: With and Without derive new rings, so concurrent
// readers (the router's forwarding path) swap an atomic pointer
// instead of locking. Construction is deterministic — two processes
// given the same member list and vnode count agree on every owner,
// which is what lets routers over one shard list, standalone or
// in-process behind a client, place keys without talking.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// DefaultVNodes is the virtual-node count per member applied when New
// is given a non-positive one. 128 points per member keeps the maximum
// member share within a few tens of percent of the mean (relative
// spread shrinks like 1/sqrt(vnodes)) while construction stays cheap.
const DefaultVNodes = 128

// point is one virtual node: a position on the circle and the index of
// the member that owns it.
type point struct {
	hash   uint64
	member int32
}

// Ring is an immutable consistent-hash ring. The zero value is an empty
// ring that owns nothing; build real ones with New.
type Ring struct {
	vnodes  int
	members []string // sorted, unique
	points  []point  // sorted by hash
}

// New builds a ring over the given members (duplicates and empty names
// dropped, order irrelevant) with vnodes virtual nodes per member
// (≤ 0 means DefaultVNodes).
func New(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for i, m := range uniq {
		r.points = appendMemberPoints(r.points, m, int32(i), vnodes)
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// appendMemberPoints appends the member's vnode points. Each point is
// the first 8 bytes of SHA-256(member || 0 || vnode-index): collisions
// across members are negligible and, crucially, a member's points
// depend only on its own name — never on who else is in the ring — so
// membership changes cannot shift surviving members' points.
func appendMemberPoints(dst []point, member string, idx int32, vnodes int) []point {
	var buf [8]byte
	sep := []byte{0}
	name := []byte(member)
	h := sha256.New()
	for v := 0; v < vnodes; v++ {
		h.Reset()
		h.Write(name)
		h.Write(sep)
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
		sum := h.Sum(nil)
		dst = append(dst, point{hash: binary.BigEndian.Uint64(sum[:8]), member: idx})
	}
	return dst
}

// Members returns the ring's member names, sorted. The slice is shared;
// callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// VNodes returns the per-member virtual node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Has reports whether the named member is in the ring.
func (r *Ring) Has(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// Owner returns the member owning key — the member of the first vnode
// point at or after key, wrapping at the top of the circle. ok is false
// only for an empty ring.
func (r *Ring) Owner(key uint64) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	i := r.search(key)
	return r.members[r.points[i].member], true
}

// search returns the index of the first point at or after key, wrapping
// to 0 past the end.
func (r *Ring) search(key uint64) int {
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= key })
	if i == len(pts) {
		i = 0
	}
	return i
}

// Successors returns up to n distinct members in ring order starting at
// key's owner. Successors(key, r.Len()) is the full preference order
// for the key: the owner first, then the member that would own it if
// the owner left, and so on — the retry order for routing around an
// unhealthy shard, and successors[1] is the natural peer-fill target
// (it owned the keys the owner acquired when it joined).
func (r *Ring) Successors(key uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	var seen uint64 // bitset over member indices; falls back to a map beyond 64
	var seenMap map[int32]bool
	if len(r.members) > 64 {
		seenMap = make(map[int32]bool, n)
	}
	for i, left := r.search(key), len(r.points); left > 0 && len(out) < n; left-- {
		m := r.points[i].member
		taken := false
		if seenMap != nil {
			taken = seenMap[m]
			seenMap[m] = true
		} else {
			taken = seen&(1<<uint(m)) != 0
			seen |= 1 << uint(m)
		}
		if !taken {
			out = append(out, r.members[m])
		}
		if i++; i == len(r.points) {
			i = 0
		}
	}
	return out
}

// With derives a ring with the member added (a no-op copy if present).
func (r *Ring) With(member string) *Ring {
	if member == "" || r.Has(member) {
		return r
	}
	return New(append(append([]string(nil), r.members...), member), r.vnodesOrDefault())
}

// Without derives a ring with the member removed (a no-op copy if
// absent).
func (r *Ring) Without(member string) *Ring {
	if !r.Has(member) {
		return r
	}
	rest := make([]string, 0, len(r.members)-1)
	for _, m := range r.members {
		if m != member {
			rest = append(rest, m)
		}
	}
	return New(rest, r.vnodesOrDefault())
}

func (r *Ring) vnodesOrDefault() int {
	if r.vnodes <= 0 {
		return DefaultVNodes
	}
	return r.vnodes
}

// Hash maps arbitrary bytes onto the ring's key space. The serving
// layer prefers cache.Key.Point (the canonical request identity); Hash
// is for keys that have no canonical form, such as routing a sweep
// request by its raw body.
func Hash(b []byte) uint64 {
	sum := sha256.Sum256(b)
	return binary.BigEndian.Uint64(sum[:8])
}
