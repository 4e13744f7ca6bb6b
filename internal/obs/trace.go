package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"sync"
	"time"
)

// Fields carries the payload of one structured event. Keys marshal in
// sorted order (encoding/json map behaviour), so a trace with a fixed
// event sequence is byte-deterministic unless a clock is attached.
type Fields map[string]any

// Tracer receives structured solver events. Implementations must be
// safe for concurrent use; solvers call Emit from whatever goroutine
// they run on.
type Tracer interface {
	Emit(event string, fields Fields)
}

// JSONLTracer writes one JSON object per event to an io.Writer:
//
//	{"ev":"probe_result","feasible":true,"removals":7,"seq":12,"target":540}
//
// Every record carries "ev" (the event name) and "seq" (a per-tracer
// monotone sequence number); when Clock is set, also "ts" (RFC3339Nano).
// Write errors are sticky: the first one is retained and reported by
// Err, and subsequent events are dropped.
type JSONLTracer struct {
	// Clock, when non-nil, stamps each event with a "ts" field. Leave
	// nil for deterministic output (golden tests).
	Clock func() time.Time

	mu  sync.Mutex
	enc *json.Encoder
	seq int64
	err error
}

// NewJSONL returns a tracer writing JSON Lines to w.
func NewJSONL(w io.Writer) *JSONLTracer {
	return &JSONLTracer{enc: json.NewEncoder(w)}
}

// Emit implements Tracer.
func (t *JSONLTracer) Emit(event string, fields Fields) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	rec := make(Fields, len(fields)+3)
	for k, v := range fields {
		rec[k] = v
	}
	rec["ev"] = event
	rec["seq"] = t.seq
	if t.Clock != nil {
		rec["ts"] = t.Clock().Format(time.RFC3339Nano)
	}
	t.seq++
	t.err = t.enc.Encode(rec)
}

// Err returns the first write error, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// CollectTracer buffers events in memory, for tests and programmatic
// inspection of a solver run.
type CollectTracer struct {
	mu     sync.Mutex
	events []CollectedEvent
}

// CollectedEvent is one buffered event.
type CollectedEvent struct {
	Event  string
	Fields Fields
}

// Emit implements Tracer. The fields map is copied, so callers may
// reuse theirs.
func (c *CollectTracer) Emit(event string, fields Fields) {
	cp := make(Fields, len(fields))
	for k, v := range fields {
		cp[k] = v
	}
	c.mu.Lock()
	c.events = append(c.events, CollectedEvent{Event: event, Fields: cp})
	c.mu.Unlock()
}

// Events returns the buffered events in emission order.
func (c *CollectTracer) Events() []CollectedEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CollectedEvent(nil), c.events...)
}

// PublishExpvar exposes the sink's live metric snapshot as an expvar
// variable (visible at /debug/vars once an HTTP server is attached).
// Publishing the same name twice is a no-op rather than the package
// expvar panic, so it is safe to call from multiple code paths.
func PublishExpvar(name string, s *Sink) {
	if s == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return s.Snapshot() }))
}

// PublishVersion exposes a build-info stamp as a string expvar (visible
// at /debug/vars). Like PublishExpvar, republishing the same name is a
// no-op instead of the package expvar panic.
func PublishVersion(name, version string) {
	if expvar.Get(name) != nil {
		return
	}
	v := new(expvar.String)
	v.Set(version)
	expvar.Publish(name, v)
}
