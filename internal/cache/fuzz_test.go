package cache

import (
	"context"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/instance"
)

// fuzzInstance decodes raw fuzz bytes into a valid instance: three
// bytes per job (size 1–64, cost 0–15, processor). The low bits of
// mRaw pick the processor count; its high bit widens every size and
// cost so that its encoding uses all eight bytes (sizes up to 2^62,
// costs up to 15·2^58 — near 2^62 — or 0), with the raw byte repeated
// in the low byte so equal raw bytes still tie.
func fuzzInstance(mRaw uint8, raw []byte) *instance.Instance {
	m := int(mRaw&0x7f)%6 + 1
	wide := mRaw&0x80 != 0
	if len(raw) == 0 {
		raw = []byte{1}
	}
	if len(raw) > 60 {
		raw = raw[:60]
	}
	n := (len(raw) + 2) / 3
	at := func(i int) byte {
		if i < len(raw) {
			return raw[i]
		}
		return 0
	}
	sizes := make([]int64, n)
	costs := make([]int64, n)
	assign := make([]int, n)
	for j := 0; j < n; j++ {
		s, c := at(3*j), at(3*j+1)
		sizes[j] = int64(s%64) + 1
		costs[j] = int64(c % 16)
		if wide {
			sizes[j] = sizes[j]<<56 | int64(s)
			costs[j] = costs[j]<<58 | int64(c)
		}
		assign[j] = int(at(3*j+2)) % m
	}
	return instance.MustNew(m, sizes, costs, assign)
}

// relabel applies perm to the instance: out job i is original job
// perm[i].
func relabel(in *instance.Instance, perm []int) *instance.Instance {
	out := &instance.Instance{M: in.M, Jobs: make([]instance.Job, in.N()), Assign: make([]int, in.N())}
	for i, j := range perm {
		out.Jobs[i] = instance.Job{ID: i, Size: in.Jobs[j].Size, Cost: in.Jobs[j].Cost}
		out.Assign[i] = in.Assign[j]
	}
	return out
}

// FuzzCanonicalHash fuzzes the canonical-form hasher's two defining
// properties: permutation invariance (relabeled jobs collide on the
// same key, and the recorded order replays a solution's move list
// correctly) and injectivity under mutation (changing any semantic
// field of the request — a size, a cost, an assignment, m, or a
// caps-relevant parameter — changes the key).
func FuzzCanonicalHash(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{5, 1, 0, 9, 2, 1, 200, 0, 0})
	f.Add(uint8(1), uint8(0), []byte{255})
	f.Add(uint8(2), uint8(7), []byte{90, 3, 1, 90, 3, 0, 90, 3, 1})
	f.Add(uint8(6), uint8(255), []byte{1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4})
	// Wide values (mRaw's high bit): multi-byte sizes and costs, ties
	// among them, and costs at both 0 and near 2^62.
	f.Add(uint8(0x80|4), uint8(3), []byte{63, 15, 0, 63, 15, 1, 7, 0, 2, 63, 15, 0, 1, 255, 3})
	f.Add(uint8(0x80|5), uint8(9), []byte{200, 0, 4, 8, 240, 4, 200, 0, 1, 72, 240, 0, 8, 0, 2, 136, 16, 5})
	f.Fuzz(func(t *testing.T, mRaw, kRaw uint8, raw []byte) {
		in := fuzzInstance(mRaw, raw)
		n := in.N()
		spec, _ := engine.Lookup("greedy")
		p := engine.Params{K: int(kRaw % 16)}
		base := Canonicalize("greedy", spec.Caps, extOf(in), p)
		// The solution whose move list the twins replay: greedy on the
		// canonical relabeling, as a flight solves it, with at least one
		// move, so a mis-indexed move has something to break.
		rel := &base.relabel(extOf(in)).Instance
		sol, err := engine.Solve(context.Background(), "greedy", rel, engine.Params{K: 1 + p.K})
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		moves := encodeMoves(rel, sol)

		// Permutation invariance: rotation and reversal of the job list.
		rot := make([]int, n)
		rev := make([]int, n)
		shift := int(kRaw) % n
		for i := range rot {
			rot[i] = (i + shift) % n
			rev[i] = n - 1 - i
		}
		want := placements(rel, sol.Assign)
		for _, perm := range [][]int{rot, rev} {
			twin := relabel(in, perm)
			got := Canonicalize("greedy", spec.Caps, extOf(twin), p)
			if got.Key != base.Key {
				t.Fatalf("relabeled instance hashed differently\noriginal: %+v\ntwin: %+v", in, twin)
			}
			// The replayed moves must put the same jobs — by (size,
			// cost, initial processor) — on the same processors.
			mapped := got.applyMoves(nil, twin, moves)
			if pl := placements(twin, mapped); !slices.Equal(pl, want) {
				t.Fatalf("replayed placements %v, original %v", pl, want)
			}
		}

		// Mutations: every semantic change must move the key.
		mutations := map[string]func() Canonical{
			"size+1": func() Canonical {
				mut := in.Clone()
				mut.Jobs[n-1].Size++
				return Canonicalize("greedy", spec.Caps, extOf(mut), p)
			},
			"cost+1": func() Canonical {
				mut := in.Clone()
				mut.Jobs[0].Cost++
				return Canonicalize("greedy", spec.Caps, extOf(mut), p)
			},
			"m+1": func() Canonical {
				mut := in.Clone()
				mut.M++
				return Canonicalize("greedy", spec.Caps, extOf(mut), p)
			},
			"k+1": func() Canonical {
				return Canonicalize("greedy", spec.Caps, extOf(in), engine.Params{K: p.K + 1})
			},
			"extra-job": func() Canonical {
				mut := &instance.Instance{M: in.M}
				mut.Jobs = append(append([]instance.Job(nil), in.Jobs...), instance.Job{ID: n, Size: 1})
				mut.Assign = append(append([]int(nil), in.Assign...), 0)
				return Canonicalize("greedy", spec.Caps, extOf(mut), p)
			},
		}
		if in.M > 1 {
			mutations["assign-moved"] = func() Canonical {
				mut := in.Clone()
				mut.Assign[0] = (mut.Assign[0] + 1) % mut.M
				return Canonicalize("greedy", spec.Caps, extOf(mut), p)
			}
		}
		for name, mutate := range mutations {
			if got := mutate(); got.Key == base.Key {
				t.Fatalf("mutation %q collided with the base key (instance %+v)", name, in)
			}
		}
	})
}

// placements returns every job of in as a (size, cost, initial
// processor, assigned processor) tuple, sorted: the labeling-free view
// of an assignment under which a permuted twin's replay must equal the
// original.
func placements(in *instance.Instance, assign []int) [][4]int64 {
	out := make([][4]int64, in.N())
	for j, job := range in.Jobs {
		out[j] = [4]int64{job.Size, job.Cost, int64(in.Assign[j]), int64(assign[j])}
	}
	slices.SortFunc(out, func(a, b [4]int64) int { return slices.Compare(a[:], b[:]) })
	return out
}
