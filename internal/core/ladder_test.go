package core

// The materialized threshold ladder and the search that walks it: the
// test-only oracle that BinarySearch and IncrementalScan are compared
// against (assertModesAgree, FuzzMPartitionInvariants,
// TestStressLadderAgreement). It runs PARTITION in full at every rung
// of an O(n²) candidate set, so it is too slow to serve, and it shares
// neither the count probe nor the incremental scan's event walk with
// the searches it checks.

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/instance"
	"repro/internal/workload"
)

// ladderScan is M-PARTITION with the ladder walk as its target search:
// PARTITION at every rung of thresholdLadder, upward from the packing
// lower bound, accepting the first whose removals fit k — simple and
// faithful to Lemma 5/6. Its fallbacks are runMPartition's: k < 0 is
// 0, and the initial assignment is returned whenever no accepted run
// beats it.
func ladderScan(in *instance.Instance, k int) instance.Solution {
	if k < 0 {
		k = 0
	}
	lo, initial := in.LowerBound(), in.InitialMakespan()
	if lo < initial {
		s := newSolver(in, nil)
		for _, v := range s.ladder(lo, initial) {
			if s.runLight(v) && s.lastRemovals <= k {
				if s.probeMakespan < initial {
					return s.materialize(s.assign)
				}
				break
			}
		}
	}
	return instance.NewSolution(in, in.Assign)
}

// thresholdLadder returns, sorted ascending and deduplicated, every
// candidate target in [lo, hi] at which the execution of PARTITION can
// change (Lemma 5): values 2·p_j where a job's large/small status flips,
// the per-processor remaining-total sums governing b_i, and the
// per-regime doubled remaining-small sums governing a_i; lo itself is
// included since behaviour is constant between consecutive thresholds.
func thresholdLadder(in *instance.Instance, lo, hi int64) []int64 {
	return newSolver(in, nil).ladder(lo, hi)
}

// ladder is the threshold-ladder kernel: it enumerates the candidate
// set over the solver's size-sorted CSR rows and prefix sums into a
// fresh slice.
//
// Complexity: the a_i family enumerates every (cutoff t, strip count r)
// pair, so a processor holding n_i jobs contributes Θ(n_i²) candidates
// — the ladder is an O(n²) superset and a full ladderScan costs
// O(n² log n) time in the worst case (one O(n log n)-ish PARTITION
// evaluation per rung after the O(n² log n²) sort here). That is why
// ladderScan lives only here, as the oracle for both search modes.
// Materialization is capped at the in-range set: every generator below
// is monotone decreasing, so candidates are appended only while they
// can still land in [lo, hi] and each generator breaks out as soon as
// its values fall below lo — out-of-range candidates are never stored,
// hashed, or iterated.
func (s *solver) ladder(lo, hi int64) []int64 {
	out := []int64{lo, hi}
	add := func(v int64) {
		if v >= lo && v <= hi {
			out = append(out, v)
		}
	}
	sizes := s.flat.Sizes
	for p := 0; p < s.flat.M; p++ {
		row := s.csr.Row(p)
		total := s.rowTotal(p)
		// L_T breakpoints 2·p_j: sizes are sorted decreasing, so stop
		// once the doubled size drops below lo.
		for _, j := range row {
			v := 2 * sizes[j]
			if v < lo {
				break
			}
			add(v)
		}
		// b_i breakpoints: remaining totals after stripping the r
		// largest jobs — strictly decreasing in r.
		rem := total
		add(rem)
		for _, j := range row {
			rem -= sizes[j]
			if rem < lo {
				break
			}
			add(rem)
		}
		// a_i breakpoints: for each large/small cutoff position t (jobs
		// before t are large in some regime), the doubled remaining
		// small sums after stripping the r largest smalls. The suffix
		// total − prefix(t) is decreasing in t, and each inner walk
		// decreases in r, so both loops break at the lo boundary.
		for t := 0; t <= len(row); t++ {
			rem := total - s.rowPrefixSum(p, t)
			if 2*rem < lo {
				break
			}
			add(2 * rem)
			for r := t; r < len(row); r++ {
				rem -= sizes[row[r]]
				if 2*rem < lo {
					break
				}
				add(2 * rem)
			}
		}
	}
	slices.Sort(out)
	// In-place dedup of the sorted candidates.
	uniq := out[:1]
	for _, v := range out[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// ladderReference recomputes the threshold ladder the pre-optimization
// way: every candidate from every family goes through a map with a
// range filter, no early breaks, then the in-range keys are sorted.
// thresholdLadder must return exactly this set — the early breaks and
// the append-sort-dedup pipeline are allowed to change cost, never
// content.
func ladderReference(in *instance.Instance, lo, hi int64) []int64 {
	set := map[int64]bool{lo: true, hi: true}
	add := func(v int64) {
		if v >= lo && v <= hi {
			set[v] = true
		}
	}
	byProc := instance.JobsOn(in.M, in.Assign)
	for _, list := range byProc {
		sort.Slice(list, func(x, y int) bool { return in.Jobs[list[x]].Size > in.Jobs[list[y]].Size })
		var total int64
		for _, j := range list {
			total += in.Jobs[j].Size
			add(2 * in.Jobs[j].Size)
		}
		rem := total
		add(rem)
		for _, j := range list {
			rem -= in.Jobs[j].Size
			add(rem)
		}
		suffix := make([]int64, len(list)+1)
		for i := len(list) - 1; i >= 0; i-- {
			suffix[i] = suffix[i+1] + in.Jobs[list[i]].Size
		}
		for t := 0; t <= len(list); t++ {
			rem := suffix[t]
			add(2 * rem)
			for r := t; r < len(list); r++ {
				rem -= in.Jobs[list[r]].Size
				add(2 * rem)
			}
		}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(x, y int) bool { return out[x] < out[y] })
	return out
}

func TestThresholdLadderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		in := workload.Generate(workload.Config{
			N: 40, M: 5, MaxSize: 200, Sizes: workload.SizeZipf,
			Placement: workload.PlaceSkewed, Seed: seed,
		})
		lb, im := in.LowerBound(), in.InitialMakespan()
		ranges := [][2]int64{
			{lb, im},           // the real search window
			{0, 2 * im},        // everything in range
			{im / 2, im/2 + 1}, // nearly empty window
			{im, im},           // degenerate lo == hi
		}
		for _, r := range ranges {
			got := thresholdLadder(in, r[0], r[1])
			want := ladderReference(in, r[0], r[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d [%d,%d]: ladder has %d rungs, reference %d\ngot  %v\nwant %v",
					seed, r[0], r[1], len(got), len(want), got, want)
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("seed=%d: ladder not strictly increasing at %d: %v", seed, i, got)
				}
			}
		}
	}
}
