package cache

import (
	"encoding/hex"
	"testing"

	"repro/internal/engine"
	"repro/internal/instance"
)

// goldenKeyCases are fixed requests whose canonical keys are pinned
// below. Each exercises a different part of the order or the encoding:
// an already-sorted request (identity permutation), a tie-heavy one
// (the index tie-break), an extended one (allowed sets and conflicts,
// hashed as given), a single job, values that need all eight bytes of
// their encoding, and a processor count above 256 with every tuning
// parameter in the key.
func goldenKeyCases() []struct {
	name   string
	solver string
	ext    *instance.Extended
	p      engine.Params
	want   string
} {
	const wide = int64(1)<<62 + 0x0123456789abcd
	return []struct {
		name   string
		solver string
		ext    *instance.Extended
		p      engine.Params
		want   string
	}{
		{
			name:   "sorted",
			solver: "mpartition",
			ext:    extOf(instance.MustNew(3, []int64{1, 2, 2, 5, 9}, []int64{0, 1, 3, 0, 2}, []int{0, 0, 1, 2, 2})),
			p:      engine.Params{K: 2},
			want:   "fde5a9a21bb5768f93b6e0ddf74771a268be2a423cef32940b018f404e1d6d5b",
		},
		{
			name:   "ties",
			solver: "greedy",
			ext: extOf(instance.MustNew(4,
				[]int64{7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 7},
				[]int64{1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1},
				[]int{3, 1, 0, 1, 3, 2, 3, 1, 0, 0, 2, 3})),
			p:    engine.Params{K: 4},
			want: "4aa39a6208ee0a8d925eeff178d17afe48da03b443213db8b77991e33ca04aa1",
		},
		{
			name:   "extended",
			solver: "constrained",
			ext: func() *instance.Extended {
				ext := extOf(instance.MustNew(3, []int64{8, 2, 5, 5}, []int64{1, 1, 0, 2}, []int{2, 0, 1, 1}))
				ext.Allowed = [][]int{{2, 0}, nil, {1}, {0, 1, 2}}
				ext.Conflicts = [][2]int{{3, 1}, {0, 2}}
				return ext
			}(),
			p:    engine.Params{K: 1},
			want: "d896aa42b3f27bdd368eb19c902c8cff07c629e886c5ce7b0da795c52402ef54",
		},
		{
			name:   "single",
			solver: "mpartition",
			ext:    extOf(instance.MustNew(2, []int64{42}, []int64{3}, []int{1})),
			p:      engine.Params{K: 1},
			want:   "8474a6b281b550864532e5e6e8f52cc39d1ca2537ad489797467d37593143e2e",
		},
		{
			name:   "wide",
			solver: "budget",
			ext: extOf(instance.MustNew(5,
				[]int64{wide, wide - 0x0101010101, 17, wide + 0x7f00ff00ff, wide - 0x0101010101},
				[]int64{wide, 0, wide - 1, 1 << 40, wide - 1},
				[]int{4, 0, 3, 1, 0})),
			p:    engine.Params{Budget: 1<<62 - 3},
			want: "ac221a15e054adb11013789c51edd4c6d19d79790ac5abe81f8d860d2b44d74b",
		},
		{
			name:   "many-processors",
			solver: "ptas",
			ext: extOf(instance.MustNew(300,
				[]int64{4, 4, 4, 1, 9, 4},
				[]int64{2, 2, 2, 0, 5, 2},
				[]int{299, 256, 257, 0, 255, 1})),
			p:    engine.Params{Budget: 9, Eps: 0.25, Workers: 3},
			want: "0e11dceeea97fd5be8b139bb0c4305c91e461ccf9704659bcac10ab4b1b6fae5",
		},
	}
}

// TestGoldenKeys pins the canonical keys of fixed requests to committed
// digests. Routers and shards built from different commits must agree
// on every key (the ring places requests by it) and the simulation
// lab's artifacts must reproduce byte for byte, so any change to the
// canonical order or the encoding must fail here. Such a change must
// bump keyVersion, and then these digests are regenerated.
func TestGoldenKeys(t *testing.T) {
	var sc CanonScratch
	for _, c := range goldenKeyCases() {
		spec, ok := engine.Lookup(c.solver)
		if !ok {
			t.Fatalf("%s: solver %q not registered", c.name, c.solver)
		}
		got := Canonicalize(c.solver, spec.Caps, c.ext, c.p).Key
		if h := hex.EncodeToString(got[:]); h != c.want {
			t.Errorf("%s: key %s, want %s", c.name, h, c.want)
		}
		if sk := sc.Canonicalize(c.solver, spec.Caps, c.ext, c.p).Key; sk != got {
			t.Errorf("%s: CanonScratch key differs from Canonicalize", c.name)
		}
	}
}
