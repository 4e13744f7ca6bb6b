package cache

import (
	"context"
	"slices"
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
	want := instance.Solution{Assign: []int{1, 0}, Makespan: 5, Moves: 1, MoveCost: 0}
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

// TestPeerFillRejectsUnverifiedAnswer pins that a peer answer failing
// verification never reaches a party or the cache: a processor past m
// and a too-short assignment are both counted as rejected, answered
// with the local engine's solution, and the later hit replays that.
func TestPeerFillRejectsUnverifiedAnswer(t *testing.T) {
	for name, bad := range map[string]instance.Solution{
		"processor past m": {Assign: []int{7, 0}, Makespan: 5, Moves: 1},
		"short assignment": {Assign: []int{1}, Makespan: 5, Moves: 1},
	} {
		t.Run(name, func(t *testing.T) {
			runs := registerPeerFillSolver(t, false)
			sink := obs.New()
			c := New(Config{Obs: sink, Fill: func(context.Context, string, string, *instance.Extended, engine.Params) (instance.Solution, bool) {
				return bad, true
			}})
			ext := peerFillInstance(5, 2)
			want := []int{0, 0} // the identity solver's answer
			for i, wantOutcome := range []Outcome{Miss, Hit} {
				sol, st, err := solve(c, context.Background(), "cache-peerfill", ext, engine.Params{K: 1}, "http://owner.example")
				if err != nil {
					t.Fatalf("solve %d: %v", i, err)
				}
				if st.Outcome != wantOutcome || (wantOutcome == Miss && st.PeerFill != "miss") {
					t.Fatalf("solve %d: stats = %+v, want %v with a peer miss on the flight", i, st, wantOutcome)
				}
				if !slices.Equal(sol.Assign, want) || sol.Makespan != 7 || sol.Moves != 0 {
					t.Fatalf("solve %d: served %+v, want the local answer %v", i, sol, want)
				}
			}
			if runs.Load() != 1 {
				t.Fatalf("engine ran %d times, want 1", runs.Load())
			}
			if got := sink.Reg.Counter("cache.peer_fill_rejected").Value(); got != 1 {
				t.Fatalf("cache.peer_fill_rejected = %d, want 1", got)
			}
		})
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
