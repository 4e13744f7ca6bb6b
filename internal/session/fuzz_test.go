package session

import (
	"context"
	"errors"
	"testing"
)

// decodeDelta turns a 3-byte chunk into one delta against a mirror of
// the live id set. The low op bits deliberately over-represent drains
// and reused ids so the infeasible and typed-error paths fuzz as hard
// as the happy path.
func decodeDelta(op, sel, sz byte, live []int, nextID, m int) Delta {
	switch op % 8 {
	case 0, 1, 2: // arrive, fresh id, proc from sel (may be -1 or out of range)
		proc := int(sel%uint8(m+2)) - 1
		return Delta{Op: OpArrive, Job: nextID, Size: int64(sz%64) + 1, Cost: int64(sz % 4), Proc: proc}
	case 3: // depart (live when possible, unknown otherwise)
		if len(live) > 0 {
			return Delta{Op: OpDepart, Job: live[int(sel)%len(live)]}
		}
		return Delta{Op: OpDepart, Job: int(sel) + 1000}
	case 4: // resize (size 0 possible → ErrBadDelta)
		if len(live) > 0 {
			return Delta{Op: OpResize, Job: live[int(sel)%len(live)], Size: int64(sz % 64)}
		}
		return Delta{Op: OpResize, Job: int(sel) + 1000, Size: 5}
	case 5: // duplicate arrival
		if len(live) > 0 {
			return Delta{Op: OpArrive, Job: live[int(sel)%len(live)], Size: int64(sz%64) + 1}
		}
		return Delta{Op: OpProcAdd}
	case 6:
		return Delta{Op: OpProcAdd}
	default: // drain, including m == 1 (infeasible) and out of range
		return Delta{Op: OpProcDrain, Proc: int(sel % uint8(m+1))}
	}
}

// FuzzSessionDeltas replays an arbitrary byte-derived delta stream
// through a warm session and a cold full-solve oracle in lockstep:
// identical accept/reject decisions (typed errors only, state untouched
// on rejection — including infeasible drains below capacity), identical
// makespans and assignments after every accepted delta, and the move
// budget respected throughout.
func FuzzSessionDeltas(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte{0, 0, 10, 0, 1, 20, 7, 0, 0})
	f.Add(uint8(1), uint8(0), []byte{0, 0, 5, 7, 0, 0, 7, 0, 0})             // drains on m=1 → infeasible
	f.Add(uint8(4), uint8(8), []byte{0, 0, 63, 0, 1, 63, 0, 2, 63, 4, 0, 0}) // resize to zero
	f.Add(uint8(3), uint8(1), []byte{6, 0, 0, 0, 5, 9, 5, 0, 9, 3, 0, 0})    // dup arrive, proc add, depart
	f.Fuzz(func(t *testing.T, mRaw, kRaw uint8, raw []byte) {
		m := int(mRaw%5) + 1
		k := int(kRaw % 8)
		warm, err := New(Config{M: m, MoveBudget: k, AutoRebalance: true})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := New(Config{M: m, MoveBudget: k, AutoRebalance: true, Cold: true})
		if err != nil {
			t.Fatal(err)
		}
		var live []int
		nextID := 0
		if len(raw) > 96 {
			raw = raw[:96]
		}
		for i := 0; i+2 < len(raw); i += 3 {
			d := decodeDelta(raw[i], raw[i+1], raw[i+2], live, nextID, warm.M())
			if d.Op == OpArrive && d.Job == nextID {
				nextID++
			}
			preN, preM, preSpan := warm.Len(), warm.M(), warm.Makespan()
			wout, werr := warm.Apply(context.Background(), d)
			cout, cerr := cold.Apply(context.Background(), d)
			if (werr == nil) != (cerr == nil) {
				t.Fatalf("delta %d (%s): warm err %v, cold err %v", i/3, d.Op, werr, cerr)
			}
			if werr != nil {
				if !errors.Is(werr, ErrUnknownJob) && !errors.Is(werr, ErrDuplicateJob) &&
					!errors.Is(werr, ErrBadDelta) && !errors.Is(werr, ErrInfeasible) {
					t.Fatalf("delta %d: untyped rejection %v", i/3, werr)
				}
				if warm.Len() != preN || warm.M() != preM || warm.Makespan() != preSpan {
					t.Fatalf("delta %d: rejection mutated state", i/3)
				}
				continue
			}
			switch d.Op {
			case OpArrive:
				live = append(live, d.Job)
			case OpDepart:
				for x, id := range live {
					if id == d.Job {
						live = append(live[:x], live[x+1:]...)
						break
					}
				}
			}
			if wout.Makespan != cout.Makespan {
				t.Fatalf("delta %d (%s): incremental makespan %d != fresh full solve %d",
					i/3, d.Op, wout.Makespan, cout.Makespan)
			}
			if len(wout.Moves) > k {
				t.Fatalf("delta %d: %d moves exceed budget %d", i/3, len(wout.Moves), k)
			}
			wi, wids := warm.Snapshot()
			ci, cids := cold.Snapshot()
			if wi.String() != ci.String() {
				t.Fatalf("delta %d: states diverge: %s vs %s", i/3, wi, ci)
			}
			for j := range wids {
				if wids[j] != cids[j] || wi.Assign[j] != ci.Assign[j] {
					t.Fatalf("delta %d slot %d: warm job %d@%d, cold job %d@%d",
						i/3, j, wids[j], wi.Assign[j], cids[j], ci.Assign[j])
				}
			}
			if err := wi.Validate(); err != nil {
				t.Fatalf("delta %d: snapshot invalid: %v", i/3, err)
			}
		}
	})
}
