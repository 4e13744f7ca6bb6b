package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJSONLDeterministic: with no Clock attached, the same event
// sequence must produce byte-identical output (map keys marshal sorted,
// seq is the only varying field).
func TestJSONLDeterministic(t *testing.T) {
	emit := func() string {
		var sb strings.Builder
		tr := NewJSONL(&sb)
		tr.Emit("probe_start", Fields{"target": int64(540), "k": 3})
		tr.Emit("probe_result", Fields{"target": int64(540), "feasible": true, "removals": 7})
		return sb.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatalf("non-deterministic JSONL output:\n%s\nvs\n%s", a, b)
	}
	want := `{"ev":"probe_start","k":3,"seq":0,"target":540}
{"ev":"probe_result","feasible":true,"removals":7,"seq":1,"target":540}
`
	if a != want {
		t.Fatalf("JSONL output:\n%s\nwant:\n%s", a, want)
	}
}

func TestJSONLClock(t *testing.T) {
	var sb strings.Builder
	tr := NewJSONL(&sb)
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr.Clock = func() time.Time { return fixed }
	tr.Emit("round", Fields{"step": 1})
	if !strings.Contains(sb.String(), `"ts":"2026-08-06T12:00:00Z"`) {
		t.Fatalf("missing ts field: %s", sb.String())
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errWrite
	}
	w.n--
	return len(p), nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "boom" }

func TestJSONLStickyError(t *testing.T) {
	tr := NewJSONL(&errWriter{n: 1})
	tr.Emit("a", nil)
	if err := tr.Err(); err != nil {
		t.Fatalf("unexpected early error: %v", err)
	}
	tr.Emit("b", nil)
	if tr.Err() == nil {
		t.Fatal("write error not retained")
	}
	tr.Emit("c", nil) // must not panic or clear the error
	if tr.Err() == nil {
		t.Fatal("sticky error cleared")
	}
}

func TestJSONLConcurrent(t *testing.T) {
	var sb lockedBuilder
	tr := NewJSONL(&sb)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit("e", Fields{"i": i})
			}
		}()
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != 400 {
		t.Fatalf("got %d lines, want 400", lines)
	}
}

type lockedBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (l *lockedBuilder) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.Write(p)
}

func (l *lockedBuilder) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.String()
}

func TestCollectTracer(t *testing.T) {
	var c CollectTracer
	f := Fields{"x": 1}
	c.Emit("a", f)
	f["x"] = 2 // tracer copied the map; the buffered event must not change
	c.Emit("b", f)
	evs := c.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Event != "a" || evs[0].Fields["x"] != 1 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Event != "b" || evs[1].Fields["x"] != 2 {
		t.Fatalf("event 1 = %+v", evs[1])
	}
}
