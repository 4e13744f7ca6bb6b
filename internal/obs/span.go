package obs

// Request-scoped tracing: a Span API carried via context.Context, a
// SpanTracer that samples finished traces (by rate, plus always-on-slow)
// into a fixed-size ring buffer and optionally re-emits them through the
// package's event Tracer. The span taxonomy and sampling rules are
// documented in DESIGN.md §11.
//
// The disabled path is allocation-free: a nil *SpanTracer and a context
// with no span make StartRequest/StartSpan return a nil *Span, and every
// Span method is safe (and free) on nil. Call sites that build attribute
// lists must guard with `if sp != nil` so the variadic slice is never
// constructed when tracing is off.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// attrKind discriminates the typed Attr payload.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrBool
)

// Attr is one typed span attribute. Construct with String, Int or Bool;
// the zero Attr marshals as an empty-keyed empty string and should not
// be used.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
}

// String returns a string-valued attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: attrString, str: v} }

// Int returns an int64-valued attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, num: v} }

// Bool returns a bool-valued attribute.
func Bool(key string, v bool) Attr {
	var n int64
	if v {
		n = 1
	}
	return Attr{Key: key, kind: attrBool, num: n}
}

// Value returns the attribute's payload as an any (string, int64 or
// bool), for export into Fields maps and JSON.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.num
	case attrBool:
		return a.num != 0
	default:
		return a.str
	}
}

// attrList marshals a slice of attrs as one JSON object in attribute
// order: {"solver":"greedy","outcome":"miss"}.
type attrList []Attr

// MarshalJSON implements json.Marshaler.
func (as attrList) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	for i, a := range as {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(a.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(a.Value())
		if err != nil {
			return nil, err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler, preserving attribute order
// (a plain map would scramble it), so /debug/traces responses decode
// back into the wire types losslessly.
func (as *attrList) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil {
		return err
	} else if tok != json.Delim('{') {
		return fmt.Errorf("obs: attrs: expected object, got %v", tok)
	}
	out := attrList{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := keyTok.(string)
		valTok, err := dec.Token()
		if err != nil {
			return err
		}
		switch v := valTok.(type) {
		case string:
			out = append(out, String(key, v))
		case bool:
			out = append(out, Bool(key, v))
		case json.Number:
			n, err := v.Int64()
			if err != nil {
				return fmt.Errorf("obs: attrs: non-integer value for %q: %v", key, err)
			}
			out = append(out, Int(key, n))
		default:
			return fmt.Errorf("obs: attrs: unsupported value %v for %q", valTok, key)
		}
	}
	if _, err := dec.Token(); err != nil { // closing brace
		return err
	}
	*as = out
	return nil
}

// SpanRecord is one finished span, as stored in the trace ring and
// served by /debug/traces. ParentID 0 marks the root span.
type SpanRecord struct {
	TraceID     string   `json:"trace"`
	SpanID      uint64   `json:"span"`
	ParentID    uint64   `json:"parent,omitempty"`
	Name        string   `json:"name"`
	StartUnixNS int64    `json:"start_unix_ns"`
	DurationNS  int64    `json:"dur_ns"`
	Attrs       attrList `json:"attrs,omitempty"`
}

// Trace is one kept request trace: the root's identity plus every span
// that finished before the root ended, in end order (children precede
// the root).
type Trace struct {
	TraceID     string       `json:"trace"`
	Root        string       `json:"root"`
	StartUnixNS int64        `json:"start_unix_ns"`
	DurationNS  int64        `json:"dur_ns"`
	Slow        bool         `json:"slow,omitempty"`
	Spans       []SpanRecord `json:"spans"`
}

// Span is one live timed operation within a trace. A nil *Span is the
// disabled span: every method is a no-op, so call sites need no nil
// checks (except to avoid building attribute slices — see the package
// note above).
type Span struct {
	tr     *traceState
	name   string
	id     uint64
	parent uint64
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// traceState accumulates the finished spans of one trace until the root
// ends and the keep/drop decision is made.
type traceState struct {
	st      *SpanTracer
	id      string
	sampled bool // rate decision, made at root start

	mu        sync.Mutex
	nextSpan  uint64
	spans     []SpanRecord
	committed bool
}

func (t *traceState) newSpanID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	return t.nextSpan
}

// add appends a finished span; spans ending after the root committed
// the trace are dropped (the trace has already been kept or discarded).
func (t *traceState) add(rec SpanRecord) {
	t.mu.Lock()
	if !t.committed {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
}

// spanKey carries the current *Span in a context.
type spanKey struct{}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// AdoptSpan grafts the span linkage of src onto base: work running under
// the returned context parents its spans into src's trace. It exists for
// executors whose context deliberately does not derive from the
// request's (the cache's single-flight goroutine): the flight keeps the
// lifetime of base but the trace identity of src. When src carries no
// span, base is returned unchanged (no allocation).
func AdoptSpan(base, src context.Context) context.Context {
	s := SpanFromContext(src)
	if s == nil {
		return base
	}
	return context.WithValue(base, spanKey{}, s)
}

// StartSpan starts a child of the span carried by ctx. When ctx carries
// none (tracing disabled or unsampled surface), it returns (ctx, nil)
// without allocating. End the returned span to record it.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{
		tr:     parent.tr,
		name:   name,
		id:     parent.tr.newSpanID(),
		parent: parent.id,
		start:  time.Now(),
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr appends typed attributes to the span. Safe on nil; callers on
// hot paths should still guard with `if sp != nil` so the variadic
// slice is not built when tracing is off.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// TraceID returns the span's trace identity ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// Duration returns the elapsed time since the span started (its final
// duration once ended). Zero on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.start)
}

// End finishes the span and records it into its trace; ending the root
// span commits the trace (keep or drop). End is idempotent and safe on
// nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		TraceID:     s.tr.id,
		SpanID:      s.id,
		ParentID:    s.parent,
		Name:        s.name,
		StartUnixNS: s.start.UnixNano(),
		DurationNS:  now.Sub(s.start).Nanoseconds(),
		Attrs:       attrList(s.attrs),
	}
	s.mu.Unlock()
	if s.parent == 0 {
		s.tr.st.commit(s.tr, rec)
		return
	}
	s.tr.add(rec)
}

// SpanConfig tunes a SpanTracer.
type SpanConfig struct {
	// SampleRate is the fraction of requests, in [0,1], whose traces are
	// kept regardless of duration. 0 keeps only slow traces; ≥ 1 keeps
	// everything.
	SampleRate float64
	// SlowThreshold keeps any trace whose root span lasted at least this
	// long, bypassing the sample rate. 0 disables the slow path.
	SlowThreshold time.Duration
	// RingSize bounds the ring of kept traces served by /debug/traces.
	// ≤ 0 means DefaultTraceRing.
	RingSize int
	// Tracer, when non-nil, receives every span of a kept trace as a
	// "span" event (one JSONL line per span under a JSONLTracer).
	Tracer Tracer
	// Obs, when non-nil, receives the trace.* counters (started, kept,
	// slow).
	Obs *Sink
}

// DefaultTraceRing is the ring size applied when SpanConfig.RingSize is
// unset.
const DefaultTraceRing = 128

// SpanTracer mints request traces, applies the keep/drop sampling
// decision when each root span ends, and retains kept traces in a
// fixed-size ring. A nil *SpanTracer disables tracing entirely:
// StartRequest returns a nil span and no allocation happens downstream.
//
// A transport that answers some requests without spans draws each
// request's decision once with Sample. It then either starts the root
// with StartSampled, passing the decision on, or, for a request it
// answers without spans, reports the end with EndSpanless, which keeps
// the request as a lone root span if it was sampled or slow.
type SpanTracer struct {
	cfg     SpanConfig
	seed    atomic.Uint64 // splitmix64 state for the rate decision
	started *Counter      // trace.started; nil without cfg.Obs

	mu   sync.Mutex
	ring []Trace
	next int
	n    int
}

// NewSpanTracer returns a tracer with the given configuration.
func NewSpanTracer(cfg SpanConfig) *SpanTracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultTraceRing
	}
	st := &SpanTracer{cfg: cfg, ring: make([]Trace, cfg.RingSize)}
	if cfg.Obs != nil {
		st.started = cfg.Obs.Reg.Counter("trace.started")
	}
	return st
}

// Enabled reports whether tracing is on. Safe on nil.
func (st *SpanTracer) Enabled() bool { return st != nil }

// StartRequest starts the root span of a new trace. traceID is adopted
// when non-empty (e.g. a client's X-Request-ID) and minted otherwise.
// On a nil tracer it returns (ctx, nil) without allocating; the caller
// needing an ID anyway should mint one with NewTraceID.
func (st *SpanTracer) StartRequest(ctx context.Context, name, traceID string) (context.Context, *Span) {
	return st.StartSampled(ctx, name, traceID, st.Sample())
}

// StartSampled is StartRequest for a request whose rate decision the
// caller already drew with Sample; it draws none of its own, so a
// request is sampled exactly as often as SampleRate says however many
// paths it tries.
func (st *SpanTracer) StartSampled(ctx context.Context, name, traceID string, sampled bool) (context.Context, *Span) {
	if st == nil {
		return ctx, nil
	}
	if traceID == "" {
		traceID = NewTraceID()
	}
	st.countStarted()
	t := &traceState{st: st, id: traceID, sampled: sampled, nextSpan: 1}
	s := &Span{tr: t, name: name, id: 1, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s), s
}

// EndSpanless closes the books on a request served without a span
// tree (the server's cache hits), passing on its one draw from Sample.
// It counts in trace.started like any root. If the request was sampled,
// or, begun at start, lasted SlowThreshold or longer, it is kept as a
// trace of one root span named name carrying attrs; otherwise nothing
// is allocated. Safe on nil.
func (st *SpanTracer) EndSpanless(name, traceID string, sampled bool, start time.Time, attrs ...Attr) {
	if st == nil {
		return
	}
	st.countStarted()
	d := time.Since(start)
	if !sampled && (st.cfg.SlowThreshold <= 0 || d < st.cfg.SlowThreshold) {
		return
	}
	if traceID == "" {
		traceID = NewTraceID()
	}
	st.commit(&traceState{st: st, id: traceID, sampled: sampled}, SpanRecord{
		TraceID:     traceID,
		SpanID:      1,
		Name:        name,
		StartUnixNS: start.UnixNano(),
		DurationNS:  d.Nanoseconds(),
		Attrs:       slices.Clone(attrs),
	})
}

// countStarted bumps trace.started, when there is a sink.
func (st *SpanTracer) countStarted() {
	if st.started != nil {
		st.started.Inc()
	}
}

// Sample draws one request's rate decision from a lock-free splitmix64
// stream, so the kept fraction converges to SampleRate without shared
// lock traffic. False on a nil tracer.
func (st *SpanTracer) Sample() bool {
	if st == nil {
		return false
	}
	r := st.cfg.SampleRate
	if r >= 1 {
		return true
	}
	if r <= 0 {
		return false
	}
	x := st.seed.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < r
}

// commit ends a trace: decide keep/drop, seal the span list, and on
// keep, push into the ring and re-emit through the configured Tracer.
func (st *SpanTracer) commit(t *traceState, root SpanRecord) {
	slow := st.cfg.SlowThreshold > 0 &&
		time.Duration(root.DurationNS) >= st.cfg.SlowThreshold
	t.mu.Lock()
	t.committed = true
	spans := append(t.spans, root)
	t.spans = nil
	t.mu.Unlock()
	if !t.sampled && !slow {
		return
	}
	st.cfg.Obs.Count("trace.kept", 1)
	if slow {
		st.cfg.Obs.Count("trace.slow", 1)
	}
	tr := Trace{
		TraceID:     t.id,
		Root:        root.Name,
		StartUnixNS: root.StartUnixNS,
		DurationNS:  root.DurationNS,
		Slow:        slow,
		Spans:       spans,
	}
	st.mu.Lock()
	st.ring[st.next] = tr
	st.next = (st.next + 1) % len(st.ring)
	if st.n < len(st.ring) {
		st.n++
	}
	st.mu.Unlock()
	if st.cfg.Tracer != nil {
		for _, rec := range spans {
			f := Fields{
				"trace":         rec.TraceID,
				"span":          rec.SpanID,
				"name":          rec.Name,
				"start_unix_ns": rec.StartUnixNS,
				"dur_ns":        rec.DurationNS,
			}
			if rec.ParentID != 0 {
				f["parent"] = rec.ParentID
			}
			for _, a := range rec.Attrs {
				f["attr."+a.Key] = a.Value()
			}
			st.cfg.Tracer.Emit("span", f)
		}
	}
}

// Traces returns the kept traces, newest first. Empty (never nil) on a
// nil tracer, so /debug/traces can serve it directly.
func (st *SpanTracer) Traces() []Trace {
	if st == nil {
		return []Trace{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Trace, 0, st.n)
	for i := 0; i < st.n; i++ {
		// Newest first: walk backward from the slot before next.
		idx := (st.next - 1 - i + len(st.ring)) % len(st.ring)
		out = append(out, st.ring[idx])
	}
	return out
}

// traceIDFallback feeds NewTraceID when crypto/rand is unavailable
// (never on supported platforms, but an ID must still be unique).
var traceIDFallback atomic.Uint64

// NewTraceID mints a 16-hex-character request/trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], traceIDFallback.Add(1)|1<<63)
	}
	return hex.EncodeToString(b[:])
}
