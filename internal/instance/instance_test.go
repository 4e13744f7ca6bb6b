package instance

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValidateOK(t *testing.T) {
	in := MustNew(2, []int64{3, 1, 2}, nil, []int{0, 1, 0})
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		in   Instance
	}{
		{"zero processors", Instance{M: 0}},
		{"length mismatch", Instance{M: 1, Jobs: []Job{{ID: 0, Size: 1, Cost: 1}}, Assign: nil}},
		{"bad id", Instance{M: 1, Jobs: []Job{{ID: 5, Size: 1, Cost: 1}}, Assign: []int{0}}},
		{"zero size", Instance{M: 1, Jobs: []Job{{ID: 0, Size: 0, Cost: 1}}, Assign: []int{0}}},
		{"negative cost", Instance{M: 1, Jobs: []Job{{ID: 0, Size: 1, Cost: -1}}, Assign: []int{0}}},
		{"target out of range", Instance{M: 1, Jobs: []Job{{ID: 0, Size: 1, Cost: 1}}, Assign: []int{1}}},
		{"negative target", Instance{M: 1, Jobs: []Job{{ID: 0, Size: 1, Cost: 1}}, Assign: []int{-1}}},
		{"m beyond int32", Instance{M: 1 << 31, Jobs: []Job{{ID: 0, Size: 1, Cost: 1}}, Assign: []int{0}}},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid instance", c.name)
		}
	}
}

func TestNewRejectsCostLenMismatch(t *testing.T) {
	if _, err := New(1, []int64{1, 2}, []int64{1}, []int{0, 0}); err == nil {
		t.Fatal("New accepted mismatched cost slice")
	}
}

func TestNewDefaultsUnitCosts(t *testing.T) {
	in := MustNew(1, []int64{5, 7}, nil, []int{0, 0})
	for _, j := range in.Jobs {
		if j.Cost != 1 {
			t.Fatalf("job %d cost = %d, want 1", j.ID, j.Cost)
		}
	}
}

func TestLoadsAndMakespan(t *testing.T) {
	in := MustNew(3, []int64{4, 2, 3, 1}, nil, []int{0, 0, 1, 2})
	loads := in.Loads(in.Assign)
	want := []int64{6, 3, 1}
	if !reflect.DeepEqual(loads, want) {
		t.Fatalf("Loads = %v, want %v", loads, want)
	}
	if got := in.InitialMakespan(); got != 6 {
		t.Fatalf("InitialMakespan = %d, want 6", got)
	}
	alt := []int{1, 0, 1, 2}
	if got := in.Makespan(alt); got != 7 {
		t.Fatalf("Makespan(alt) = %d, want 7", got)
	}
}

func TestMoveAccounting(t *testing.T) {
	in := MustNew(2, []int64{4, 2, 3}, []int64{10, 20, 30}, []int{0, 0, 1})
	alt := []int{1, 0, 0}
	if got := in.MoveCount(alt); got != 2 {
		t.Fatalf("MoveCount = %d, want 2", got)
	}
	if got := in.MoveCost(alt); got != 40 {
		t.Fatalf("MoveCost = %d, want 40", got)
	}
	if got := in.MovedJobs(alt); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("MovedJobs = %v, want [0 2]", got)
	}
	if got := in.MoveCount(in.Assign); got != 0 {
		t.Fatalf("MoveCount(initial) = %d, want 0", got)
	}
}

func TestLowerBound(t *testing.T) {
	in := MustNew(3, []int64{5, 1, 1}, nil, []int{0, 1, 2})
	// ceil(7/3) = 3 but the size-5 job dominates.
	if got := in.LowerBound(); got != 5 {
		t.Fatalf("LowerBound = %d, want 5", got)
	}
	in2 := MustNew(2, []int64{3, 3, 3}, nil, []int{0, 0, 1})
	// ceil(9/2) = 5 > 3.
	if got := in2.LowerBound(); got != 5 {
		t.Fatalf("LowerBound = %d, want 5", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := MustNew(2, []int64{1, 2}, nil, []int{0, 1})
	cp := in.Clone()
	cp.Jobs[0].Size = 99
	cp.Assign[1] = 0
	if in.Jobs[0].Size != 1 || in.Assign[1] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestJobsOn(t *testing.T) {
	on := JobsOn(3, []int{2, 0, 2, 1})
	want := [][]int{{1}, {3}, {0, 2}}
	if !reflect.DeepEqual(on, want) {
		t.Fatalf("JobsOn = %v, want %v", on, want)
	}
}

func TestNewSolutionMetrics(t *testing.T) {
	in := MustNew(2, []int64{4, 2, 3}, []int64{5, 6, 7}, []int{0, 0, 1})
	sol := NewSolution(in, []int{1, 0, 1})
	if sol.Makespan != 7 || sol.Moves != 1 || sol.MoveCost != 5 {
		t.Fatalf("NewSolution = %+v", sol)
	}
	// The assignment must be copied.
	src := []int{0, 0, 1}
	sol2 := NewSolution(in, src)
	src[0] = 1
	if sol2.Assign[0] != 0 {
		t.Fatal("NewSolution did not copy the assignment")
	}
}

func TestSortedSizesDesc(t *testing.T) {
	in := MustNew(1, []int64{2, 9, 5}, nil, []int{0, 0, 0})
	got := in.SortedSizesDesc()
	want := []int64{9, 5, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedSizesDesc = %v, want %v", got, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := MustNew(3, []int64{4, 2, 3, 1}, []int64{1, 2, 3, 4}, []int{0, 0, 1, 2})
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString(`{"m":0,"jobs":[],"assign":[]}`)); err == nil {
		t.Fatal("Decode accepted invalid instance")
	}
	if _, err := Decode(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

func TestGreedyTightStructure(t *testing.T) {
	for _, m := range []int{2, 3, 5, 8} {
		in := GreedyTight(m)
		if err := in.Validate(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if in.M != m {
			t.Fatalf("m=%d: M = %d", m, in.M)
		}
		if got, want := in.N(), m*m-m+1; got != want {
			t.Fatalf("m=%d: N = %d, want %d", m, got, want)
		}
		if got, want := in.InitialMakespan(), int64(2*m-1); got != want {
			t.Fatalf("m=%d: initial makespan = %d, want %d", m, got, want)
		}
		// Optimal with m-1 moves is exactly m: move the m-1 unit jobs off
		// processor 0.
		loads := in.Loads(in.Assign)
		if loads[0] != int64(2*m-1) {
			t.Fatalf("m=%d: processor 0 load = %d", m, loads[0])
		}
		for p := 1; p < m; p++ {
			if loads[p] != int64(m-1) {
				t.Fatalf("m=%d: processor %d load = %d, want %d", m, p, loads[p], m-1)
			}
		}
	}
}

func TestPartitionTightStructure(t *testing.T) {
	in := PartitionTight()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.InitialMakespan() != 3 {
		t.Fatalf("initial makespan = %d, want 3", in.InitialMakespan())
	}
	// With one move (the size-1 job from processor 0 to 1) the makespan is 2.
	if got := in.Makespan([]int{1, 0, 1}); got != PartitionTightOPT() {
		t.Fatalf("optimal makespan = %d, want %d", got, PartitionTightOPT())
	}
}

// Property: for any assignment, sum of loads equals total size and the
// makespan is at least the lower bound components' ceiling-average part.
func TestLoadsConservationProperty(t *testing.T) {
	f := func(raw []uint16, mRaw uint8) bool {
		m := int(mRaw%8) + 1
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		sizes := make([]int64, len(raw))
		assign := make([]int, len(raw))
		for i, r := range raw {
			sizes[i] = int64(r%1000) + 1
			assign[i] = int(r) % m
		}
		in := MustNew(m, sizes, nil, assign)
		loads := in.Loads(in.Assign)
		var sum int64
		for _, l := range loads {
			sum += l
		}
		return sum == in.TotalSize() && in.InitialMakespan() >= (in.TotalSize()+int64(m)-1)/int64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringIsStable(t *testing.T) {
	in := MustNew(2, []int64{1, 2}, nil, []int{0, 1})
	want := "instance{m=2 n=2 total=3 max=2 init=2}"
	if got := in.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
