package cache

import (
	"crypto/sha256"
	"sync"

	"repro/internal/engine"
	"repro/internal/instance"
)

// CanonScratch holds the reusable buffers behind a zero-allocation
// Canonicalize: the canonical encoding, the radix sort's two job-order
// buffers and its keys. One scratch serves one request at a time; the
// server's hit probe and the router's keying pool them.
//
// Retention rules: the Canonical returned by CanonScratch.Canonicalize
// aliases the scratch's order buffer, so it is only valid until the next
// Canonicalize on the same scratch — use it for an immediate TryGet, or
// take an owned copy with Canonical.Owned. The package-level
// Canonicalize returns an owned Canonical.
type CanonScratch struct {
	enc   []byte
	order []int
	tmp   []int    // the radix sort's other order buffer
	keys  []uint64 // one attribute's order-preserving keys, by job index
}

// Canonicalize computes the canonical identity of a solve request (see
// the package-level Canonicalize) on the scratch's buffers: no
// steady-state allocations for plain (non-extended) instances once the
// buffers are warm.
func (sc *CanonScratch) Canonicalize(solver string, caps engine.Caps, ext *instance.Extended, p engine.Params) Canonical {
	order := sc.canonicalOrder(ext)
	sc.enc = appendCanonical(sc.enc[:0], solver, caps, ext, p, order)
	return Canonical{Key: sha256.Sum256(sc.enc), order: order}
}

// canonPool backs the allocating Canonicalize: only the order it
// returns is copied out, so a call allocates once.
var canonPool = sync.Pool{New: func() any { return new(CanonScratch) }}

// Canonicalize computes the canonical identity of a solve request
// against the named solver's capability metadata. The returned
// Canonical owns its memory.
func Canonicalize(solver string, caps engine.Caps, ext *instance.Extended, p engine.Params) Canonical {
	sc := canonPool.Get().(*CanonScratch)
	c := sc.Canonicalize(solver, caps, ext, p).Owned()
	canonPool.Put(sc)
	return c
}

// signBit flips a two's-complement value into an unsigned one with the
// same order.
const signBit = 1 << 63

// canonicalOrder returns the job indices in canonical order — sorted by
// (size, cost, initial processor), ties broken by index — or nil when
// the request must keep its own ordering (extension fields present) or
// is already sorted. Jobs equal in all three attributes are genuinely
// interchangeable: swapping them changes neither loads nor move counts.
//
// The order is a stable least-significant-digit radix sort starting
// from index order: by processor, then cost, then size, each a stable
// pass over order-preserving unsigned keys. Stability keeps ties in
// index order, so the result is exactly the (size, cost, processor,
// index) order, in time linear in the job count.
func (sc *CanonScratch) canonicalOrder(ext *instance.Extended) []int {
	if len(ext.Allowed) > 0 || len(ext.Conflicts) > 0 {
		return nil
	}
	in := &ext.Instance
	if jobsCanonicallySorted(in) {
		return nil
	}
	n := in.N()
	sc.order = instance.GrowSlice(sc.order, n)
	for j := range sc.order {
		sc.order[j] = j
	}
	sc.tmp = instance.GrowSlice(sc.tmp, n)
	sc.keys = instance.GrowSlice(sc.keys, n)
	for j := range sc.keys {
		sc.keys[j] = uint64(in.Assign[j]) ^ signBit
	}
	sc.radixPasses()
	for j := range sc.keys {
		sc.keys[j] = uint64(in.Jobs[j].Cost) ^ signBit
	}
	sc.radixPasses()
	for j := range sc.keys {
		sc.keys[j] = uint64(in.Jobs[j].Size) ^ signBit
	}
	sc.radixPasses()
	return sc.order
}

// radixPasses stably sorts sc.order by sc.keys, indexed by job, one
// byte per pass from the least significant. A byte in which no two keys
// differ gets no pass.
func (sc *CanonScratch) radixPasses() {
	keys := sc.keys
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	src, dst := sc.order, sc.tmp
	var count [256]int
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		clear(count[:])
		for _, k := range keys {
			count[byte(k>>shift)]++
		}
		at := 0
		for b, c := range count {
			count[b] = at
			at += c
		}
		for _, j := range src {
			b := byte(keys[j] >> shift)
			dst[count[b]] = j
			count[b]++
		}
		src, dst = dst, src
	}
	sc.order, sc.tmp = src, dst
}
