package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestMPartitionTraceGolden pins the JSONL trace schema of a small
// M-PARTITION binary search byte-for-byte. With no Clock on the tracer
// the output is fully deterministic (map keys marshal sorted), so any
// change to event names, field names or emission order shows up here.
func TestMPartitionTraceGolden(t *testing.T) {
	in := instance.MustNew(2,
		[]int64{8, 7, 3, 2},
		[]int64{1, 1, 1, 1},
		[]int{0, 0, 0, 0})
	var buf bytes.Buffer
	sink := obs.NewTracing(obs.NewJSONL(&buf))
	MPartition(context.Background(), in, 2, BinarySearch, sink)

	want := `{"ev":"probe_start","seq":0,"target":20}
{"ev":"probe_result","feasible":true,"large_extra":0,"large_total":0,"makespan":20,"removals":0,"seq":1,"target":20}
{"ev":"probe_start","seq":2,"target":15}
{"ev":"removal","job":1,"kind":"small","proc":0,"seq":3,"step":3,"target":15}
{"ev":"probe_result","feasible":true,"large_extra":0,"large_total":1,"makespan":13,"removals":1,"seq":4,"target":15}
{"ev":"probe_start","seq":5,"target":12}
{"ev":"removal","job":0,"kind":"large","proc":0,"seq":6,"step":1,"target":12}
{"ev":"probe_result","feasible":true,"large_extra":1,"large_total":2,"makespan":12,"removals":1,"seq":7,"target":12}
{"ev":"probe_start","seq":8,"target":11}
{"ev":"removal","job":0,"kind":"large","proc":0,"seq":9,"step":1,"target":11}
{"ev":"probe_result","feasible":true,"large_extra":1,"large_total":2,"makespan":12,"removals":1,"seq":10,"target":11}
{"ev":"probe_start","seq":11,"target":10}
{"ev":"removal","job":0,"kind":"large","proc":0,"seq":12,"step":1,"target":10}
{"ev":"probe_result","feasible":true,"large_extra":1,"large_total":2,"makespan":12,"removals":1,"seq":13,"target":10}
{"ev":"search_result","k":2,"makespan":12,"mode":"binary","moves":1,"seq":14,"target":10}
`
	if got := buf.String(); got != want {
		t.Fatalf("golden trace mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// probeEvent is the subset of trace fields the bisection replay needs.
type probeEvent struct {
	Ev       string `json:"ev"`
	Seq      int64  `json:"seq"`
	Target   int64  `json:"target"`
	Feasible bool   `json:"feasible"`
	Removals int    `json:"removals"`
}

// TestMPartitionTraceReconstructsBisection is the ISSUE acceptance
// check: trace a 1000-job M-PARTITION binary search and verify that the
// per-probe target / feasible / removals fields alone reconstruct the
// exact bisection sequence — replaying lo/hi updates from the events
// predicts every probed target.
func TestMPartitionTraceReconstructsBisection(t *testing.T) {
	in := workload.Generate(workload.Config{
		N: 1000, M: 16, Sizes: workload.SizeZipf,
		Placement: workload.PlaceSkewed, Seed: 7,
	})
	const k = 50
	var buf bytes.Buffer
	sink := obs.NewTracing(obs.NewJSONL(&buf))
	sol, _ := MPartition(context.Background(), in, k, BinarySearch, sink)

	// Parse the JSONL stream: every line must be valid JSON with a
	// monotone seq; collect the probe_result events in order.
	var probes []probeEvent
	var searchTarget int64 = -1
	lastSeq := int64(-1)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev probeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev.Seq != lastSeq+1 {
			t.Fatalf("seq jumped from %d to %d", lastSeq, ev.Seq)
		}
		lastSeq = ev.Seq
		switch ev.Ev {
		case "probe_result":
			probes = append(probes, ev)
		case "search_result":
			searchTarget = ev.Target
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(probes) < 5 {
		t.Fatalf("only %d probes traced; instance too easy to exercise the bisection", len(probes))
	}

	// Replay the binary search from the events alone. The driver probes
	// hi first; on success it bisects [lo, hi], accepting mid when the
	// probe is feasible with at most k removals.
	good := func(p probeEvent) bool { return p.Feasible && p.Removals <= k }
	lo, hi := in.LowerBound(), in.InitialMakespan()
	if probes[0].Target != hi {
		t.Fatalf("first probe at %d, want initial makespan %d", probes[0].Target, hi)
	}
	if !good(probes[0]) {
		t.Fatalf("initial-makespan probe not feasible: %+v", probes[0])
	}
	accepted := probes[0].Target
	i := 1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if i >= len(probes) {
			t.Fatalf("trace ended after %d probes but replay expects a probe at %d", len(probes), mid)
		}
		if probes[i].Target != mid {
			t.Fatalf("probe %d at target %d, replay expects %d (lo=%d hi=%d)",
				i, probes[i].Target, mid, lo, hi)
		}
		if good(probes[i]) {
			hi = mid
			accepted = mid
		} else {
			lo = mid + 1
		}
		i++
	}
	if i != len(probes) {
		t.Fatalf("replay consumed %d probes, trace has %d", i, len(probes))
	}
	if searchTarget != accepted {
		t.Fatalf("search_result target = %d, replay accepted %d", searchTarget, accepted)
	}
	if sol.Moves > k {
		t.Fatalf("solution moves %d exceed budget %d", sol.Moves, k)
	}
}

// TestPartitionTraceDisabledMatchesEnabled guards the instrumentation
// against observer effects: the solution must be identical with tracing
// on and off.
func TestPartitionTraceDisabledMatchesEnabled(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		in := workload.Generate(workload.Config{
			N: 120, M: 8, Sizes: workload.SizeBimodal,
			Placement: workload.PlaceSkewed, Seed: seed,
		})
		plain, _ := MPartition(context.Background(), in, 10, BinarySearch, nil)
		var buf bytes.Buffer
		traced, _ := MPartition(context.Background(), in, 10, BinarySearch, obs.NewTracing(obs.NewJSONL(&buf)))
		if plain.Makespan != traced.Makespan || plain.Moves != traced.Moves {
			t.Fatalf("seed %d: traced run diverged: %d/%d vs %d/%d",
				seed, plain.Makespan, plain.Moves, traced.Makespan, traced.Moves)
		}
		if !strings.Contains(buf.String(), `"ev":"search_result"`) {
			t.Fatalf("seed %d: trace missing search_result", seed)
		}
	}
}

// TestMPartitionMetrics checks the probe counters agree with the traced
// probe count.
func TestMPartitionMetrics(t *testing.T) {
	in := workload.Generate(workload.Config{
		N: 200, M: 8, Sizes: workload.SizeZipf,
		Placement: workload.PlaceSkewed, Seed: 3,
	})
	tr := &obs.CollectTracer{}
	sink := obs.NewTracing(tr)
	MPartition(context.Background(), in, 20, BinarySearch, sink)
	var traced int64
	for _, ev := range tr.Events() {
		if ev.Event == "probe_result" {
			traced++
		}
	}
	snap := sink.Snapshot()
	if got := snap.Counters["core.probes"]; got != traced {
		t.Fatalf("core.probes = %d, trace saw %d probe_result events", got, traced)
	}
	if snap.Counters["core.probes_feasible"] > traced {
		t.Fatalf("feasible probes %d exceed total %d", snap.Counters["core.probes_feasible"], traced)
	}
	if h := snap.Histograms["core.probe_removals"]; h.Count != snap.Counters["core.probes_feasible"] {
		t.Fatalf("probe_removals count %d != feasible probes %d",
			h.Count, snap.Counters["core.probes_feasible"])
	}
}
