// Package cache is the solution cache of the serving layer: a
// canonical-form instance hasher, a size-bounded LRU of solver results,
// and a single-flight layer that coalesces concurrent identical
// requests into one engine call (DESIGN.md §10).
//
// Canonical form: two solve requests are equivalent when they name the
// same solver, agree on every tuning parameter that solver consumes,
// and their instances differ only by a relabeling of job indices — the
// same multiset of (size, cost, initial processor) triples on the same
// processor count. The hasher sorts jobs into a canonical order before
// encoding, so permuted-but-identical requests collide on the same key,
// and it records that order so a cached solution — stored as a list of
// moves in canonical coordinates — can be replayed onto any
// requester's ordering.
//
// One answer per key: a flight solves the request's canonical
// relabeling (its jobs in canonical order, renumbered to their slots),
// not the job order of whoever asked first, and every party — the
// flight's initiator, its coalesced waiters, later hits — replays the
// one stored move list. A peer-fill hook is handed that relabeling and
// answers on its order, and a cache with caching disabled runs the
// same route, storing nothing. So the answer depends on the key alone.
//
// Instances carrying §5 extension fields (allowed sets, conflicts) are
// hashed in their own job order: the extension data is per-job, so
// equal-triple jobs are no longer interchangeable.
//
// Only parameters the solver's capability metadata advertises enter the
// key (caps-relevant flags): a greedy key ignores Budget and Eps, a
// budget key ignores K. Params.Workers never enters the key — the
// engine contract is that results are identical at every worker count.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/instance"
)

// Key is a canonical-form cache key: the SHA-256 digest of the
// canonical encoding. Two requests collide iff their canonical
// encodings are byte-identical (modulo a hash collision, which the
// fuzz suite hunts for and the 256-bit digest makes negligible).
type Key [sha256.Size]byte

// Point projects the key onto the consistent-hash ring's 64-bit circle
// (internal/ring): the first 8 bytes of the digest, which are uniform.
// Permuted-but-identical requests share a Key and therefore a Point, so
// the whole fleet agrees on one owning shard per canonical request.
func (k Key) Point() uint64 {
	return binary.BigEndian.Uint64(k[:8])
}

// Canonical is the canonicalized identity of one solve request: the
// cache key plus the canonical order of the request's jobs.
type Canonical struct {
	// Key is the cache key.
	Key Key
	// order[slot] is the request job in canonical slot slot; nil means
	// the identity (already canonical, or an extended instance).
	order []int
}

// keyVersion stamps the encoding layout; bump it whenever the canonical
// encoding changes so stale keys from older layouts cannot collide.
const keyVersion = "rebalance-cache-v1\x00"

// jobsCanonicallySorted reports whether the request's own job order is
// already canonical — (size, cost, initial processor) nondecreasing —
// in which case it is its own canonical order.
func jobsCanonicallySorted(in *instance.Instance) bool {
	jobs, assign := in.Jobs, in.Assign
	for j := 1; j < len(jobs); j++ {
		a, b := &jobs[j-1], &jobs[j]
		switch {
		case a.Size != b.Size:
			if a.Size > b.Size {
				return false
			}
		case a.Cost != b.Cost:
			if a.Cost > b.Cost {
				return false
			}
		case assign[j-1] > assign[j]:
			return false
		}
	}
	return true
}

// appendCanonical appends the canonical encoding of the request to dst.
// order is the canonical job order (nil = identity). The encoding is
// injective over (solver, m, canonical job triples, caps-masked params,
// extension fields): every field is length-delimited or fixed-width, so
// distinct requests cannot encode to the same bytes.
func appendCanonical(dst []byte, solver string, caps engine.Caps, ext *instance.Extended, p engine.Params, order []int) []byte {
	in := &ext.Instance
	// Grow once for everything but the extension fields: the header, 24
	// bytes per job, the mask byte and up to three parameters.
	dst = slices.Grow(dst, len(keyVersion)+len(solver)+1+16+24*in.N()+1+24)
	dst = append(dst, keyVersion...)
	dst = append(dst, solver...)
	dst = append(dst, 0)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(in.M))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(in.N()))
	for slot := 0; slot < in.N(); slot++ {
		j := slot
		if order != nil {
			j = order[slot]
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(in.Jobs[j].Size))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(in.Jobs[j].Cost))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(in.Assign[j]))
	}
	// Caps-relevant flags only: a mask byte makes "K consumed but zero"
	// distinct from "K not consumed".
	var mask byte
	if caps.K {
		mask |= 1
	}
	if caps.Budget {
		mask |= 2
	}
	if caps.Eps {
		mask |= 4
	}
	dst = append(dst, mask)
	if caps.K {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.K))
	}
	if caps.Budget {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Budget))
	}
	if caps.Eps {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Eps))
	}
	if len(ext.Allowed) > 0 || len(ext.Conflicts) > 0 {
		dst = append(dst, 'E')
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(ext.Allowed)))
		for _, set := range ext.Allowed {
			if set == nil {
				dst = binary.LittleEndian.AppendUint64(dst, math.MaxUint64)
				continue
			}
			// Allowed sets are semantically unordered; hash a sorted copy.
			sorted := append([]int(nil), set...)
			sort.Ints(sorted)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(len(sorted)))
			for _, m := range sorted {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(m))
			}
		}
		// Conflict pairs are unordered both within a pair and across the
		// list; hash the normalized sorted form.
		pairs := make([][2]int, len(ext.Conflicts))
		for i, c := range ext.Conflicts {
			if c[0] > c[1] {
				c[0], c[1] = c[1], c[0]
			}
			pairs[i] = c
		}
		sort.Slice(pairs, func(a, b int) bool {
			if pairs[a][0] != pairs[b][0] {
				return pairs[a][0] < pairs[b][0]
			}
			return pairs[a][1] < pairs[b][1]
		})
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(pairs)))
		for _, c := range pairs {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(c[0]))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(c[1]))
		}
	}
	return dst
}

// Owned returns c with a private copy of its order, safe to keep after
// the scratch that computed it is reused.
func (c Canonical) Owned() Canonical {
	c.order = slices.Clone(c.order)
	return c
}

// job returns the request job in canonical slot slot.
func (c Canonical) job(slot int) int {
	if c.order == nil {
		return slot
	}
	return c.order[slot]
}

// relabel returns the canonical relabeling of ext, the request c keys:
// a copy whose job in slot slot is the request job c places there,
// renumbered to ID slot (Validate demands ID = position) with its
// initial processor. Two requests with one key relabel to the same
// instance, which is what a flight solves. An extended request keeps
// its own order (the identity), so the shared allowed sets and
// conflicts stay aligned with its jobs.
func (c Canonical) relabel(ext *instance.Extended) *instance.Extended {
	in := &ext.Instance
	jobs := make([]instance.Job, in.N())
	assign := make([]int, in.N())
	if c.order == nil {
		copy(jobs, in.Jobs)
		copy(assign, in.Assign)
	} else {
		for slot, j := range c.order {
			jobs[slot] = in.Jobs[j]
			assign[slot] = in.Assign[j]
		}
	}
	for slot := range jobs {
		jobs[slot].ID = slot
	}
	return &instance.Extended{Instance: instance.Instance{M: in.M, Jobs: jobs, Assign: assign}, Allowed: ext.Allowed, Conflicts: ext.Conflicts}
}

// encodeMoves returns sol, a solution of rel, a canonical relabeling,
// as a move list: one (slot, processor) pair per job sol places off
// its initial processor, in slot order. The slice is sized exactly.
// Every slot and processor fits an int32: Validate bounds both n and m
// to int32. An assignment shorter than rel panics.
func encodeMoves(rel *instance.Instance, sol instance.Solution) []int32 {
	moved := 0
	for j, p := range rel.Assign {
		if sol.Assign[j] != p {
			moved++
		}
	}
	if moved == 0 {
		return nil
	}
	moves := make([]int32, 0, 2*moved)
	for slot, p := range rel.Assign {
		if q := sol.Assign[slot]; q != p {
			moves = append(moves, int32(slot), int32(q))
		}
	}
	return moves
}

// applyMoves writes into dst — reused when its capacity suffices, grown
// otherwise — the assignment a move list describes for in, the request
// c keys: in's initial assignment with each (canonical slot, processor)
// pair applied to the job in that slot. The key fixes every slot's
// (size, cost, initial processor), so this is the stored solution on
// in's own job order. The returned slice is the (possibly grown)
// buffer: callers that loop should keep it for the next call; callers
// that publish it must not reuse it afterwards.
func (c Canonical) applyMoves(dst []int, in *instance.Instance, moves []int32) []int {
	dst = instance.GrowSlice(dst, in.N())
	copy(dst, in.Assign)
	for i := 0; i < len(moves); i += 2 {
		dst[c.job(int(moves[i]))] = int(moves[i+1])
	}
	return dst
}
