package cache

import (
	"crypto/sha256"
	"slices"

	"repro/internal/engine"
	"repro/internal/instance"
)

// CanonScratch holds the reusable buffers behind a zero-allocation
// Canonicalize: the canonical encoding, the job order, and the inverse
// permutation. One scratch serves one request at a time; the server's
// fast path and the router's keying pool them.
//
// Retention rules: the Canonical returned by CanonScratch.Canonicalize
// aliases the scratch's perm buffer, so it is only valid until the next
// Canonicalize on the same scratch — use it for an immediate TryGet and
// drop it. Callers that need a Canonical outliving the request (flight
// initiation stores one per in-flight solve) must use the allocating
// Canonicalize instead.
type CanonScratch struct {
	enc   []byte
	order []int
	perm  []int
}

// Canonicalize computes the canonical identity of a solve request (see
// the package-level Canonicalize) on the scratch's buffers: no
// steady-state allocations for plain (non-extended) instances once the
// buffers are warm.
func (sc *CanonScratch) Canonicalize(solver string, caps engine.Caps, ext *instance.Extended, p engine.Params) Canonical {
	order := sc.canonicalOrder(ext)
	sc.enc = appendCanonical(sc.enc[:0], solver, caps, ext, p, order)
	c := Canonical{Key: sha256.Sum256(sc.enc)}
	if order != nil {
		sc.perm = instance.GrowSlice(sc.perm, len(order))
		for slot, j := range order {
			sc.perm[j] = slot
		}
		c.perm = sc.perm
	}
	return c
}

// canonicalOrder returns the job indices in canonical order — sorted by
// (size, cost, initial processor), ties broken by index — or nil when
// the request must keep its own ordering (extension fields present) or
// is already sorted. Jobs equal in all three attributes are genuinely
// interchangeable: swapping them changes neither loads nor move counts.
func (sc *CanonScratch) canonicalOrder(ext *instance.Extended) []int {
	if len(ext.Allowed) > 0 || len(ext.Conflicts) > 0 {
		return nil
	}
	in := &ext.Instance
	if jobsCanonicallySorted(in) {
		return nil
	}
	sc.order = instance.GrowSlice(sc.order, in.N())
	for j := range sc.order {
		sc.order[j] = j
	}
	// The comparison is a total order, so the unstable sort yields
	// exactly the order a stable sort by (size, cost, initial processor)
	// would, without sort.Stable's insertion-and-merge passes or
	// sort.Interface's dynamic calls.
	slices.SortFunc(sc.order, canonicalCmp(in))
	return sc.order
}
