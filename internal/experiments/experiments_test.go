package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestSuiteIsComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("suite has %d experiments, want 15", len(all))
	}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Fatalf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Note == "" || e.Run == nil {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
}

// The fast experiments run end-to-end and produce non-empty tables with
// sane shapes; the slow ones (E3 scaling, E9 simulation at full size)
// are covered by the benchmarks.
func TestFastExperimentsProduceTables(t *testing.T) {
	fast := map[string]bool{"E1": true, "E2": true, "E5": true, "E7": true, "E8": true, "E10": true}
	for _, e := range All() {
		if !fast[e.ID] {
			continue
		}
		tab := e.Run()
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced an empty table", e.ID)
		}
		if len(tab.Headers) < 2 {
			t.Fatalf("%s has too few columns", e.ID)
		}
	}
}

func TestE1Shape(t *testing.T) {
	tab := E1()
	// Adversarial ratio strictly increases with m toward 2, and the
	// M-PARTITION ratio never exceeds 1.5.
	var prev float64
	for _, row := range tab.Rows {
		adv, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if adv <= prev {
			t.Fatalf("adversarial ratio not increasing: %v", tab.Rows)
		}
		prev = adv
		mp, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			t.Fatal(err)
		}
		if mp > 1.5 {
			t.Fatalf("M-PARTITION ratio %g > 1.5", mp)
		}
	}
	if prev < 1.9 {
		t.Fatalf("largest adversarial ratio %g should approach 2", prev)
	}
}

func TestE2TightRowHits15(t *testing.T) {
	tab := E2()
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "paper-tight" {
		t.Fatalf("missing tight-instance row: %v", last)
	}
	if !strings.HasPrefix(last[5], "1.500") {
		t.Fatalf("tight instance ratio %q, want 1.500", last[5])
	}
}

func TestE8DecisionsMatchOracle(t *testing.T) {
	tab := E8()
	for _, row := range tab.Rows {
		partitionable := row[1] == "true"
		feasible := row[2] == "feasible"
		if partitionable != feasible {
			t.Fatalf("exact verdict mismatch on %s: %v", row[0], row)
		}
		if !feasible && row[4] == "solved" {
			t.Fatalf("greedy 'solved' infeasible gadget %s", row[0])
		}
	}
}

func TestE10AllDecisionsCorrect(t *testing.T) {
	tab := E10()
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Fatalf("reduction decision incorrect: %v", row)
		}
	}
}

// TestE6ReportsToTheSuiteSink pins that E6's budget PARTITION reports
// into the suite's sink, as the GAP baseline beside it does, so
// `experiments -only E6 -metrics` shows both solvers' counters.
func TestE6ReportsToTheSuiteSink(t *testing.T) {
	s := obs.New()
	SetSink(s)
	t.Cleanup(func() { SetSink(nil) })
	E6()
	var budget int64
	for name, v := range s.Snapshot().Counters {
		if strings.HasPrefix(name, "core.budget_") {
			budget += v
		}
	}
	if budget == 0 {
		t.Fatal("E6 recorded no core.budget_* counter in the suite's sink")
	}
}
