package experiments

import (
	"context"
	"reflect"
	"testing"
)

// TestRunAllMatchesSequential pins the fan-out contract: RunAll returns
// tables in input order with the same contents a sequential loop
// produces. The subset is the fast deterministic experiments — the
// timing tables (E3, E7, E11) are excluded because their wall-clock
// columns legitimately differ between runs, parallel or not.
func TestRunAllMatchesSequential(t *testing.T) {
	deterministic := map[string]bool{"E1": true, "E8": true, "E10": true}
	var exps []Experiment
	for _, e := range All() {
		if deterministic[e.ID] {
			exps = append(exps, e)
		}
	}
	if len(exps) != 3 {
		t.Fatalf("selected %d experiments, want 3", len(exps))
	}

	want, err := RunAll(context.Background(), exps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		got, err := RunAll(context.Background(), exps, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(exps) {
			t.Fatalf("workers=%d: %d tables for %d experiments", w, len(got), len(exps))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Table, want[i].Table) {
				t.Fatalf("workers=%d: %s table diverged from sequential\ngot  %+v\nwant %+v",
					w, exps[i].ID, got[i].Table, want[i].Table)
			}
		}
	}
}
