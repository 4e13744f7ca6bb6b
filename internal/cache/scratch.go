package cache

import (
	"crypto/sha256"

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

// Canonicalize is the scratch-reusing equivalent of the package-level
// Canonicalize: same key, same permutation semantics, no steady-state
// allocations for plain (non-extended) instances once the buffers are
// warm.
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

// canonicalOrder mirrors the package-level canonicalOrder on the
// scratch's buffers.
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
	sortCanonical(sc.order, in)
	return sc.order
}
