package cache

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/obs"
)

// Peer-fill unit tests: a flight with a peer target consults the Fill
// hook before the engine, caches what the peer returns, and falls back
// to the engine on a peer miss.

// registerPeerFillSolver registers "cache-peerfill", an identity
// solver, for the duration of the test and returns its run counter.
// With mustNotRun the solver panics instead, for tests whose answer
// must come from the peer.
func registerPeerFillSolver(t *testing.T, mustNotRun bool) *atomic.Int64 {
	runs := new(atomic.Int64)
	engine.RegisterTest(t, engine.Spec{
		Name: "cache-peerfill", Summary: "identity solver counting runs", Guarantee: "-",
		Kind: engine.KindSolution, Caps: engine.Caps{K: true},
		Run: func(ctx context.Context, in *instance.Instance, p engine.Params) (instance.Solution, error) {
			runs.Add(1)
			if mustNotRun {
				panic("peer-fill test solver must not run")
			}
			assign := append([]int(nil), in.Assign...)
			return instance.Solution{Assign: assign, Makespan: in.InitialMakespan()}, nil
		},
	})
	return runs
}

func peerFillInstance(sizes ...int64) *instance.Extended {
	ext := &instance.Extended{}
	ext.Instance.M = 2
	for i, s := range sizes {
		ext.Instance.Jobs = append(ext.Instance.Jobs, instance.Job{ID: i, Size: s})
		ext.Instance.Assign = append(ext.Instance.Assign, 0)
	}
	return ext
}

func TestPeerFillHitSkipsEngine(t *testing.T) {
	registerPeerFillSolver(t, true)
	sink := obs.New()
	var asked atomic.Int64
	want := instance.Solution{Assign: []int{1, 0}, Makespan: 7, Moves: 1, MoveCost: 1}
	c := New(Config{Obs: sink, Fill: func(ctx context.Context, peer, solver string, ext *instance.Extended, p engine.Params) (instance.Solution, bool) {
		asked.Add(1)
		if peer != "http://owner.example" {
			t.Errorf("fill called with peer %q", peer)
		}
		if solver != "cache-peerfill" || p.K != 3 {
			t.Errorf("fill identity: solver=%q k=%d", solver, p.K)
		}
		return want, true
	}})

	ext := peerFillInstance(5, 2)
	sol, st, err := solve(c, context.Background(), "cache-peerfill", ext, engine.Params{K: 3}, "http://owner.example")
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if st.Outcome != Miss || st.PeerFill != "hit" || st.EngineNS != 0 {
		t.Fatalf("stats = %+v, want local miss + peer hit + zero engine time", st)
	}
	if asked.Load() != 1 {
		t.Fatalf("fill hook called %d times", asked.Load())
	}
	if sol.Makespan != want.Makespan || sol.Moves != want.Moves {
		t.Fatalf("peer solution not returned: %+v", sol)
	}
	// The peer's answer must now be cached locally: a repeat is a plain
	// hit with no further fill call.
	_, st2, err := solve(c, context.Background(), "cache-peerfill", ext, engine.Params{K: 3}, "http://owner.example")
	if err != nil || st2.Outcome != Hit || st2.PeerFill != "" {
		t.Fatalf("repeat: stats=%+v err=%v, want pure hit", st2, err)
	}
	if asked.Load() != 1 {
		t.Fatalf("repeat consulted the peer again (%d calls)", asked.Load())
	}
	if got := sink.Reg.Counter("cache.peer_fill_hits").Value(); got != 1 {
		t.Fatalf("cache.peer_fill_hits = %d, want 1", got)
	}
}

func TestPeerFillMissFallsBackToEngine(t *testing.T) {
	runs := registerPeerFillSolver(t, false)
	sink := obs.New()
	c := New(Config{Obs: sink, Fill: func(context.Context, string, string, *instance.Extended, engine.Params) (instance.Solution, bool) {
		return instance.Solution{}, false
	}})
	ext := peerFillInstance(9, 4, 1)
	_, st, err := solve(c, context.Background(), "cache-peerfill", ext, engine.Params{K: 1}, "http://owner.example")
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if st.Outcome != Miss || st.PeerFill != "miss" {
		t.Fatalf("stats = %+v, want miss + peer miss", st)
	}
	if runs.Load() != 1 {
		t.Fatal("engine did not run after the peer missed")
	}
	if got := sink.Reg.Counter("cache.peer_fill_misses").Value(); got != 1 {
		t.Fatalf("cache.peer_fill_misses = %d, want 1", got)
	}
}

func TestNoPeerNoFillCall(t *testing.T) {
	registerPeerFillSolver(t, false)
	var asked atomic.Int64
	c := New(Config{Fill: func(context.Context, string, string, *instance.Extended, engine.Params) (instance.Solution, bool) {
		asked.Add(1)
		return instance.Solution{}, false
	}})
	ext := peerFillInstance(3)
	if _, st, err := solve(c, context.Background(), "cache-peerfill", ext, engine.Params{K: 1}, ""); err != nil || st.PeerFill != "" {
		t.Fatalf("peerless solve: stats=%+v err=%v", st, err)
	}
	if asked.Load() != 0 {
		t.Fatalf("fill hook called %d times without a peer", asked.Load())
	}
}
