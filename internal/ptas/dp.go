package ptas

import (
	"context"

	"repro/internal/obs"
)

// The §4 forward DP is generic over its state-key representation. The
// original implementation keyed the frontier maps with strings (one
// s+2-byte allocation per generated transition — the dominant
// allocation of the whole scheme at >20k allocs per solve). With the
// default MaxJobs ≤ 64 the class count s stays small, so the same s+2
// bytes almost always fit a 16-byte value key (key128) that never
// touches the heap; the string codec remains as the fallback for
// pathological δ with s > 14.
//
// Both codecs preserve the byte layout and comparison order of the
// original string keys, so the (cost, cfgIdx, prevKey) tie-break —
// and therefore the reconstructed assignment — is bit-identical no
// matter which codec runs.

// key128 packs the first 16 key bytes big-endian into two words:
// byte i of the string layout is byte i of hi·lo reading from the most
// significant end. Trailing bytes are zero for every key of the same
// DP, so word-wise comparison equals lexicographic string comparison.
type key128 struct{ hi, lo uint64 }

func less128(a, b key128) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	return a.lo < b.lo
}

// dpCodec abstracts the key representation for dpForward.
type dpCodec[K comparable] struct {
	// encode packs a class allocation plus used small units.
	encode func(alloc []int32, used int) K
	// decode unpacks a key into alloc and returns the used units.
	decode func(key K, alloc []int32) int
	// less is the lexicographic order of the original string keys.
	less func(a, b K) bool
}

func codec128(s int) dpCodec[key128] {
	return dpCodec[key128]{
		encode: func(alloc []int32, used int) key128 {
			var k key128
			for i, a := range alloc {
				k.or(i, byte(a))
			}
			k.or(s, byte(used&0xff))
			k.or(s+1, byte(used>>8))
			return k
		},
		decode: func(key key128, alloc []int32) int {
			for i := range alloc {
				alloc[i] = int32(key.at(i))
			}
			return int(key.at(s)) | int(key.at(s+1))<<8
		},
		less: less128,
	}
}

func (k *key128) or(i int, b byte) {
	if i < 8 {
		k.hi |= uint64(b) << (56 - 8*i)
	} else {
		k.lo |= uint64(b) << (56 - 8*(i-8))
	}
}

func (k key128) at(i int) byte {
	if i < 8 {
		return byte(k.hi >> (56 - 8*i))
	}
	return byte(k.lo >> (56 - 8*(i-8)))
}

func codecString(s int) dpCodec[string] {
	return dpCodec[string]{
		encode: func(alloc []int32, used int) string {
			b := make([]byte, s+2)
			for i, a := range alloc {
				b[i] = byte(a)
			}
			b[s] = byte(used & 0xff)
			b[s+1] = byte(used >> 8)
			return string(b)
		},
		decode: func(key string, alloc []int32) int {
			for i := range alloc {
				alloc[i] = int32(key[i])
			}
			return int(key[s]) | int(key[s+1])<<8
		},
		less: func(a, b string) bool { return a < b },
	}
}

// dpEntry is one frontier slot: minimal cost to reach the state, plus
// the canonical back-pointer.
type dpEntry[K comparable] struct {
	cost   int64
	cfgIdx int32
	prev   K
}

// dpProblem is the guess-independent description dpForward consumes.
// Configurations are flattened struct-of-arrays: configuration ci has
// large-class counts cfgX[ci*s : (ci+1)*s] and small capacity cfgV[ci].
type dpProblem struct {
	m, s     int
	nConfigs int
	cfgX     []int32
	cfgV     []int32
	counts   []int32 // global class counts N_i
	vTotal   int
	// removalCost is the §4 COST(C, C') for processor p adopting
	// configuration ci.
	removalCost func(p, ci int) int64
	opts        *Options
	g           int64 // guess, for trace events
}

// dpForward runs the forward DP over processors and reconstructs the
// chosen configuration per processor. It returns errInfeasibleGuess
// when no complete allocation exists and ErrTooLarge past MaxStates.
func dpForward[K comparable](ctx context.Context, pr *dpProblem, codec dpCodec[K]) (int64, []int32, error) {
	s, m := pr.s, pr.m
	alloc := make([]int32, s)
	nalloc := make([]int32, s)
	start := codec.encode(alloc, 0)
	frontier := map[K]dpEntry[K]{start: {cost: 0, cfgIdx: -1}}
	// layers[p] records the frontier after placing processor p, for
	// reconstruction.
	layers := make([]map[K]dpEntry[K], m)

	costBuf := dpCostPool.Get().(*[]int64)
	defer dpCostPool.Put(costBuf)
	if cap(*costBuf) < pr.nConfigs {
		*costBuf = make([]int64, pr.nConfigs)
	}
	for p := 0; p < m; p++ {
		// Per-processor config costs are state-independent; the buffer
		// is pooled across layers, guesses and concurrent solves.
		cfgCost := (*costBuf)[:pr.nConfigs]
		for ci := 0; ci < pr.nConfigs; ci++ {
			cfgCost[ci] = pr.removalCost(p, ci)
		}
		next := make(map[K]dpEntry[K], len(frontier))
		// generated counts transitions surviving the capacity and class
		// checks; pruned counts the rejected ones. Local ints so the
		// disabled path pays nothing beyond the increments.
		var generated, pruned int64
		var steps int
		for key, e := range frontier {
			used := codec.decode(key, alloc)
			for ci := 0; ci < pr.nConfigs; ci++ {
				// Cancellation point: a layer explores frontier×configs
				// transitions — potentially many millions — so the context
				// is polled every 16384 of them.
				if steps++; steps&16383 == 0 {
					if err := ctx.Err(); err != nil {
						return 0, nil, err
					}
				}
				nu := used + int(pr.cfgV[ci])
				if nu > pr.vTotal {
					pruned++
					continue
				}
				bad := false
				x := pr.cfgX[ci*s : ci*s+s]
				for i := 0; i < s; i++ {
					nalloc[i] = alloc[i] + x[i]
					if nalloc[i] > pr.counts[i] {
						bad = true
						break
					}
				}
				if bad {
					pruned++
					continue
				}
				generated++
				nk := codec.encode(nalloc, nu)
				tot := e.cost + cfgCost[ci]
				// Min by (cost, cfgIdx, prevKey): the tie-breaks make the
				// recorded back-pointer — and therefore the reconstructed
				// assignment — canonical even though the frontier is
				// iterated in randomized map order. Without them, equal-
				// cost solutions would flip between runs.
				if old, exists := next[nk]; !exists || tot < old.cost ||
					(tot == old.cost && (int32(ci) < old.cfgIdx ||
						(int32(ci) == old.cfgIdx && codec.less(key, old.prev)))) {
					next[nk] = dpEntry[K]{cost: tot, cfgIdx: int32(ci), prev: key}
				}
			}
		}
		if pr.opts.Obs != nil {
			pr.opts.Obs.Count("ptas.dp_generated", generated)
			pr.opts.Obs.Count("ptas.dp_pruned", pruned)
			pr.opts.Obs.Observe("ptas.dp_states", int64(len(next)))
			if pr.opts.Obs.Tracing() {
				pr.opts.Obs.Emit("dp_layer", obs.Fields{
					"guess": pr.g, "proc": p, "frontier_in": len(frontier),
					"generated": generated, "pruned": pruned, "kept": len(next),
				})
			}
		}
		if len(next) == 0 {
			return 0, nil, errInfeasibleGuess
		}
		if len(next) > pr.opts.MaxStates {
			return 0, nil, ErrTooLarge
		}
		layers[p] = next
		frontier = next
	}

	finalKey := codec.encode(pr.counts, pr.vTotal)
	fin, ok := frontier[finalKey]
	if !ok {
		return 0, nil, errInfeasibleGuess
	}

	// Reconstruct the per-processor configuration indices.
	chosen := make([]int32, m)
	key, e := finalKey, fin
	for p := m - 1; p >= 0; p-- {
		chosen[p] = e.cfgIdx
		key = e.prev
		if p > 0 {
			e = layers[p-1][key]
		}
	}
	return fin.cost, chosen, nil
}
