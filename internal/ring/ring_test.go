package ring

import (
	"fmt"
	"testing"
)

// splitmix64 draws the sampled key population: deterministic,
// well-mixed, independent of the ring's own SHA-256 point hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func sampleKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = splitmix64(uint64(i) + 1)
	}
	return keys
}

func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("http://shard-%d.example:8080", i)
	}
	return names
}

func TestOwnerDeterministicAcrossInstances(t *testing.T) {
	members := shardNames(5)
	a := New(members, 0)
	// Same members in a different order must yield the identical ring —
	// this is what lets routers agree without talking.
	shuffled := []string{members[3], members[0], members[4], members[1], members[2]}
	b := New(shuffled, 0)
	for _, key := range sampleKeys(2000) {
		oa, _ := a.Owner(key)
		ob, _ := b.Owner(key)
		if oa != ob {
			t.Fatalf("owner disagreement for key %#x: %q vs %q", key, oa, ob)
		}
	}
}

func TestEmptyRing(t *testing.T) {
	var r Ring
	if _, ok := r.Owner(42); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if s := r.Successors(42, 3); s != nil {
		t.Fatalf("empty ring returned successors %v", s)
	}
	if got := New(nil, 0).Len(); got != 0 {
		t.Fatalf("New(nil) has %d members", got)
	}
}

// TestBalance pins the vnode smoothing: across 3–16 shards the busiest
// shard's key share stays within 40% of the mean and the idlest within
// 40% below it. With 128 vnodes the relative spread of shares is about
// 1/sqrt(128) ≈ 9%, so these bounds have wide margin while still
// catching a broken point distribution (a single-vnode ring fails them
// immediately).
func TestBalance(t *testing.T) {
	keys := sampleKeys(20000)
	for n := 3; n <= 16; n++ {
		r := New(shardNames(n), 0)
		counts := map[string]int{}
		for _, k := range keys {
			owner, ok := r.Owner(k)
			if !ok {
				t.Fatal("no owner")
			}
			counts[owner]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d members own keys", n, len(counts))
		}
		mean := float64(len(keys)) / float64(n)
		for m, c := range counts {
			share := float64(c) / mean
			if share > 1.40 || share < 0.60 {
				t.Errorf("n=%d: member %s owns %.2fx the mean share", n, m, share)
			}
		}
	}
}

// TestMinimalDisruptionAdd pins the exact consistent-hashing property:
// adding one member moves keys ONLY onto the new member, and about
// 1/(n+1) of them.
func TestMinimalDisruptionAdd(t *testing.T) {
	keys := sampleKeys(20000)
	for _, n := range []int{3, 5, 8, 15} {
		before := New(shardNames(n), 0)
		newcomer := "http://shard-new.example:8080"
		after := before.With(newcomer)
		moved := 0
		for _, k := range keys {
			ob, _ := before.Owner(k)
			oa, _ := after.Owner(k)
			if ob == oa {
				continue
			}
			moved++
			if oa != newcomer {
				t.Fatalf("n=%d: key %#x moved %q → %q, not to the new member", n, k, ob, oa)
			}
		}
		want := float64(len(keys)) / float64(n+1)
		if moved == 0 {
			t.Fatalf("n=%d: adding a member moved no keys", n)
		}
		if f := float64(moved); f > 2*want || f < want/2 {
			t.Errorf("n=%d: adding one member moved %d keys, want ≈%.0f (K/N)", n, moved, want)
		}
	}
}

// TestMinimalDisruptionRemove is the mirror property: removing a member
// moves exactly the keys it owned, nothing else.
func TestMinimalDisruptionRemove(t *testing.T) {
	keys := sampleKeys(20000)
	for _, n := range []int{3, 5, 8, 15} {
		members := shardNames(n)
		before := New(members, 0)
		victim := members[n/2]
		after := before.Without(victim)
		moved := 0
		for _, k := range keys {
			ob, _ := before.Owner(k)
			oa, _ := after.Owner(k)
			if ob == victim {
				if oa == victim {
					t.Fatalf("n=%d: removed member still owns key %#x", n, k)
				}
				moved++
				continue
			}
			if oa != ob {
				t.Fatalf("n=%d: key %#x owned by surviving %q moved to %q", n, k, ob, oa)
			}
		}
		want := float64(len(keys)) / float64(n)
		if f := float64(moved); f > 2*want || f < want/2 {
			t.Errorf("n=%d: removing one member moved %d keys, want ≈%.0f (K/N)", n, moved, want)
		}
	}
}

// TestSuccessorsAreTheFailoverOrder: successors[1] must be who would
// own the key if the owner left — that is the retry target and the
// peer-fill source.
func TestSuccessorsAreTheFailoverOrder(t *testing.T) {
	r := New(shardNames(6), 0)
	for _, k := range sampleKeys(500) {
		succ := r.Successors(k, r.Len())
		if len(succ) != r.Len() {
			t.Fatalf("Successors returned %d of %d members", len(succ), r.Len())
		}
		owner, _ := r.Owner(k)
		if succ[0] != owner {
			t.Fatalf("successors[0] = %q, owner = %q", succ[0], owner)
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("duplicate member %q in successors", s)
			}
			seen[s] = true
		}
		// Peeling the owner off must promote successors[1].
		next, _ := r.Without(owner).Owner(k)
		if next != succ[1] {
			t.Fatalf("after removing owner, key went to %q, successors[1] = %q", next, succ[1])
		}
	}
}

func TestWithWithoutDerivation(t *testing.T) {
	members := shardNames(4)
	r := New(members, 64)
	if r2 := r.With(members[0]); r2 != r {
		t.Fatal("With(existing) should be a no-op")
	}
	if r2 := r.Without("http://absent.example"); r2 != r {
		t.Fatal("Without(absent) should be a no-op")
	}
	grown := r.With("http://shard-9.example:8080")
	if grown.Len() != 5 || grown.VNodes() != 64 {
		t.Fatalf("grown ring: %d members, %d vnodes", grown.Len(), grown.VNodes())
	}
	// Derivation must equal direct construction over the same set.
	direct := New(append(append([]string(nil), members...), "http://shard-9.example:8080"), 64)
	for _, k := range sampleKeys(1000) {
		a, _ := grown.Owner(k)
		b, _ := direct.Owner(k)
		if a != b {
			t.Fatalf("derived and direct rings disagree on key %#x", k)
		}
	}
}

func TestHashStable(t *testing.T) {
	if Hash([]byte("abc")) != Hash([]byte("abc")) {
		t.Fatal("Hash not deterministic")
	}
	if Hash([]byte("abc")) == Hash([]byte("abd")) {
		t.Fatal("Hash collision on trivially different inputs")
	}
}
