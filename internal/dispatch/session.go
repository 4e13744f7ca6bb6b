// The dispatch core's session table: bounded, TTL-evicted, per-session
// serialized access to internal/session state. Transports adapt their
// wire format onto SessionCreate / SessionDelta / SessionGet exactly as
// they adapt solve bodies onto Do — the table, eviction policy, and
// delta serialization live here once, not per transport.
package dispatch

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/instance"
	"repro/internal/session"
)

// Session-table defaults applied by New to zero Config fields.
const (
	DefaultMaxSessions = 256
	DefaultSessionTTL  = 15 * time.Minute
)

// Typed session errors; the HTTP adapter maps them onto 404 and 429.
var (
	// ErrSessionNotFound reports a session id the table does not hold —
	// never created, expired, or closed by a drain.
	ErrSessionNotFound = errors.New("session not found")
	// ErrSessionTableFull reports a create rejected because the bounded
	// table is at capacity (after evicting anything expired). Safe to
	// retry once existing sessions expire or close.
	ErrSessionTableFull = errors.New("session table full")
)

// SessionRequest is the decoded body of POST /v1/session.
type SessionRequest struct {
	// M creates an empty farm of m processors; ignored when Instance is
	// set (the seed instance carries its own m, and its job indices
	// become the caller job ids).
	M int `json:"m,omitempty"`
	// Instance seeds the session with a live assignment.
	Instance *instance.Extended `json:"instance,omitempty"`
	// MoveBudget is the per-delta rebalance budget k (budget mode).
	MoveBudget int `json:"move_budget,omitempty"`
	// Target > 0 switches to bicriteria target mode (makespan ≤
	// 1.5·target with move-count-optimal rebalances when reachable).
	Target int64 `json:"target,omitempty"`
	// Manual disables per-delta auto-rebalancing; state then changes
	// only structurally until an explicit rebalance delta arrives.
	Manual bool `json:"manual,omitempty"`
}

// SessionDeltaRequest is the decoded body of POST /v1/session/{id}/delta.
type SessionDeltaRequest struct {
	// Op is one of "arrive", "depart", "resize", "proc_add",
	// "proc_drain", or "rebalance" (explicit solve with K moves for
	// manual sessions).
	Op   string `json:"op"`
	Job  int    `json:"job,omitempty"`
	Size int64  `json:"size,omitempty"`
	Cost int64  `json:"cost,omitempty"`
	// Proc is the arrive placement or drain target. Omitted on an
	// arrival it means "least-loaded processor"; a proc_drain without
	// it is rejected.
	Proc *int `json:"proc,omitempty"`
	// K is the move budget of an explicit "rebalance" op.
	K int `json:"k,omitempty"`
}

// SessionMove is one migration on the wire.
type SessionMove struct {
	Job  int `json:"job"`
	From int `json:"from"`
	To   int `json:"to"`
}

// SessionState summarizes a live session (GET /v1/session/{id} and the
// create response).
type SessionState struct {
	ID         string  `json:"id"`
	Rev        uint64  `json:"rev"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	Makespan   int64   `json:"makespan"`
	LowerBound int64   `json:"lower_bound"`
	Loads      []int64 `json:"loads"`
	TotalMoves int64   `json:"total_moves"`
}

// SessionDeltaResult is the outcome of one applied delta.
type SessionDeltaResult struct {
	SessionState
	Forced     []SessionMove `json:"forced,omitempty"`
	Moves      []SessionMove `json:"moves,omitempty"`
	Rebalanced bool          `json:"rebalanced,omitempty"`
}

// sessionEntry is one table slot. The entry mutex serializes deltas to
// this session; lastUsed (unix nanos, guarded by the table mutex for
// writes at lookup) drives TTL eviction; closed flips once — under the
// entry mutex, after the entry has left the map — so an in-flight delta
// either completes before the close or observes it and reports
// ErrSessionNotFound, never a torn state.
type sessionEntry struct {
	mu       sync.Mutex
	sess     *session.Session
	id       string
	lastUsed time.Time
	closed   bool
}

// sessionTable is the Core's session store.
type sessionTable struct {
	mu      sync.Mutex
	entries map[string]*sessionEntry
}

// SessionCount returns the number of live sessions.
func (c *Core) SessionCount() int {
	c.sessions.mu.Lock()
	defer c.sessions.mu.Unlock()
	return len(c.sessions.entries)
}

// newSessionID returns a fresh 128-bit hex session id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("session id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// SessionCreate builds a session and installs it in the table. Errors:
// *BadRequestError for a malformed config or seed instance (m above
// MaxProcessors included),
// ErrSessionTableFull when the table is at capacity after evicting
// expired sessions, a context.Canceled-wrapped error once Shutdown has
// begun.
func (c *Core) SessionCreate(ctx context.Context, req *SessionRequest) (SessionState, error) {
	if err := c.enter(); err != nil {
		return SessionState{}, err
	}
	defer c.inflight.Done()
	m := req.M
	if req.Instance != nil {
		m = req.Instance.M
	}
	if err := processorLimit(m); err != nil {
		c.cfg.Obs.Count("server.bad_requests", 1)
		return SessionState{}, err
	}
	cfg := session.Config{
		M:             req.M,
		MoveBudget:    req.MoveBudget,
		Target:        req.Target,
		AutoRebalance: !req.Manual,
		Obs:           c.cfg.Obs,
	}
	if req.Instance != nil {
		if err := req.Instance.Validate(); err != nil {
			c.cfg.Obs.Count("server.bad_requests", 1)
			return SessionState{}, &BadRequestError{Msg: fmt.Sprintf("invalid instance: %v", err)}
		}
		cfg.Initial = &req.Instance.Instance
	}
	sess, err := session.New(cfg)
	if err != nil {
		c.cfg.Obs.Count("server.bad_requests", 1)
		return SessionState{}, &BadRequestError{Msg: err.Error()}
	}
	ent := &sessionEntry{sess: sess, id: newSessionID(), lastUsed: time.Now()}
	t := c.sessions
	t.mu.Lock()
	expired := c.evictExpiredLocked(time.Now())
	full := len(t.entries) >= c.cfg.MaxSessions
	if !full {
		t.entries[ent.id] = ent
		c.gauge("session.active", int64(len(t.entries)))
	}
	t.mu.Unlock()
	for _, e := range expired {
		if c.closeEntry(e) {
			c.cfg.Obs.Count("session.evicted", 1)
		}
	}
	if full {
		c.cfg.Obs.Count("session.rejected_full", 1)
		return SessionState{}, fmt.Errorf("%w (%d live); retry later", ErrSessionTableFull, c.cfg.MaxSessions)
	}
	c.cfg.Obs.Count("session.created", 1)
	var st SessionState
	ent.mu.Lock()
	c.fillState(ent, &st)
	ent.mu.Unlock()
	return st, nil
}

// SessionGet returns the current state of a live session, refreshing
// its TTL.
func (c *Core) SessionGet(id string) (SessionState, error) {
	ent, err := c.lookup(id)
	if err != nil {
		return SessionState{}, err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.closed {
		return SessionState{}, sessionNotFound(id)
	}
	var st SessionState
	c.fillState(ent, &st)
	return st, nil
}

// SessionDelta applies one delta to a live session, serialized against
// other deltas to the same session (distinct sessions proceed in
// parallel), and refreshes its TTL. The delta runs under the same
// deadline policy as a solve: the core default clamped to the maximum,
// layered on ctx and the drain context. Once Shutdown has begun it
// fails with a context.Canceled-wrapped error.
func (c *Core) SessionDelta(ctx context.Context, id string, req *SessionDeltaRequest) (SessionDeltaResult, error) {
	if err := c.enter(); err != nil {
		return SessionDeltaResult{}, err
	}
	defer c.inflight.Done()
	ent, err := c.lookup(id)
	if err != nil {
		return SessionDeltaResult{}, err
	}
	dctx, cancel := c.requestCtx(ctx, 0)
	defer cancel()
	start := time.Now()
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.closed {
		return SessionDeltaResult{}, sessionNotFound(id)
	}
	var res SessionDeltaResult
	if req.Op == "rebalance" {
		moves, rerr := ent.sess.Rebalance(dctx, req.K)
		if rerr != nil {
			c.cfg.Obs.Count("session.delta_errors", 1)
			return SessionDeltaResult{}, rerr
		}
		res.Moves = wireMoves(moves)
		res.Rebalanced = true
	} else {
		d, perr := parseDelta(req)
		if perr != nil {
			c.cfg.Obs.Count("session.delta_errors", 1)
			return SessionDeltaResult{}, perr
		}
		if d.Op == session.OpProcAdd {
			if err := processorLimit(ent.sess.M() + 1); err != nil {
				c.cfg.Obs.Count("session.delta_errors", 1)
				return SessionDeltaResult{}, err
			}
		}
		out, aerr := ent.sess.Apply(dctx, d)
		if aerr != nil {
			c.cfg.Obs.Count("session.delta_errors", 1)
			return SessionDeltaResult{}, mapSessionErr(aerr)
		}
		res.Forced = wireMoves(out.Forced)
		res.Moves = wireMoves(out.Moves)
		res.Rebalanced = out.Rebalanced
	}
	c.cfg.Obs.Count("session.deltas", 1)
	c.cfg.Obs.Count("session.moves", int64(len(res.Moves)+len(res.Forced)))
	c.cfg.Obs.Observe("session.delta_ns", time.Since(start).Nanoseconds())
	c.fillState(ent, &res.SessionState)
	return res, nil
}

// lookup resolves a session id, evicting it instead when its TTL has
// lapsed. The table lock is released before the caller takes the entry
// lock (no lock-order cycle with the eviction path).
func (c *Core) lookup(id string) (*sessionEntry, error) {
	t := c.sessions
	now := time.Now()
	t.mu.Lock()
	ent, ok := t.entries[id]
	if ok && now.Sub(ent.lastUsed) > c.cfg.SessionTTL {
		delete(t.entries, id)
		c.gauge("session.active", int64(len(t.entries)))
		t.mu.Unlock()
		if c.closeEntry(ent) {
			c.cfg.Obs.Count("session.evicted", 1)
		}
		return nil, sessionNotFound(id)
	}
	if ok {
		ent.lastUsed = now
	}
	t.mu.Unlock()
	if !ok {
		return nil, sessionNotFound(id)
	}
	return ent, nil
}

// evictExpiredLocked removes every expired entry from the table (table
// lock held) and returns them. Callers close the returned entries only
// after releasing the table lock: closeEntry blocks on each entry's own
// lock, and an in-flight delta may hold one for the length of a solve —
// the table must stay available to other sessions meanwhile.
func (c *Core) evictExpiredLocked(now time.Time) []*sessionEntry {
	t := c.sessions
	var expired []*sessionEntry
	for id, ent := range t.entries {
		if now.Sub(ent.lastUsed) > c.cfg.SessionTTL {
			delete(t.entries, id)
			expired = append(expired, ent)
		}
	}
	if len(expired) > 0 {
		c.gauge("session.active", int64(len(t.entries)))
	}
	return expired
}

// closeEntry marks an entry closed and reports whether this call was
// the one that closed it (idempotent). The entry has already left the
// table; any in-flight delta holding the entry lock finishes first,
// then every later access observes closed.
func (c *Core) closeEntry(ent *sessionEntry) bool {
	ent.mu.Lock()
	already := ent.closed
	ent.closed = true
	ent.mu.Unlock()
	return !already
}

// closeSessions empties the table on drain: every session is closed
// cleanly (in-flight deltas have already completed — Shutdown waits for
// the inflight group first) and later accesses report
// ErrSessionNotFound.
func (c *Core) closeSessions() {
	t := c.sessions
	t.mu.Lock()
	entries := make([]*sessionEntry, 0, len(t.entries))
	for id, ent := range t.entries {
		delete(t.entries, id)
		entries = append(entries, ent)
	}
	c.gauge("session.active", 0)
	t.mu.Unlock()
	for _, ent := range entries {
		if c.closeEntry(ent) {
			c.cfg.Obs.Count("session.closed", 1)
		}
	}
}

// sessionJanitor evicts expired sessions in the background until the
// core's root context dies.
func (c *Core) sessionJanitor() {
	interval := c.cfg.SessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.sessions.mu.Lock()
			expired := c.evictExpiredLocked(time.Now())
			c.sessions.mu.Unlock()
			for _, ent := range expired {
				if c.closeEntry(ent) {
					c.cfg.Obs.Count("session.evicted", 1)
				}
			}
		case <-c.rootCtx.Done():
			return
		}
	}
}

// fillState stamps the session summary (entry lock held).
func (c *Core) fillState(ent *sessionEntry, st *SessionState) {
	st.ID = ent.id
	st.Rev = ent.sess.Rev()
	st.N = ent.sess.Len()
	st.M = ent.sess.M()
	st.Makespan = ent.sess.Makespan()
	st.LowerBound = ent.sess.LowerBound()
	st.Loads = ent.sess.Loads()
	st.TotalMoves = ent.sess.TotalMoves()
}

func sessionNotFound(id string) error {
	return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
}

// parseDelta maps the wire delta onto the session's typed form. An
// unknown op, or a proc_drain without the processor to drain, is a
// *BadRequestError.
func parseDelta(req *SessionDeltaRequest) (session.Delta, error) {
	d := session.Delta{Job: req.Job, Size: req.Size, Cost: req.Cost}
	switch req.Op {
	case session.OpArrive.String():
		d.Op = session.OpArrive
		d.Proc = -1 // omitted proc = least-loaded placement
		if req.Proc != nil {
			d.Proc = *req.Proc
		}
	case session.OpDepart.String():
		d.Op = session.OpDepart
	case session.OpResize.String():
		d.Op = session.OpResize
	case session.OpProcAdd.String():
		d.Op = session.OpProcAdd
	case session.OpProcDrain.String():
		if req.Proc == nil {
			return session.Delta{}, &BadRequestError{Msg: `proc_drain needs "proc", the processor to drain`}
		}
		d.Op = session.OpProcDrain
		d.Proc = *req.Proc
	default:
		return session.Delta{}, &BadRequestError{Msg: fmt.Sprintf("unknown delta op %q", req.Op)}
	}
	return d, nil
}

// mapSessionErr converts session rejections into the transport error
// vocabulary: validation failures become *BadRequestError (HTTP 400),
// while infeasibility keeps its instance.ErrInfeasible classification
// (HTTP 422) and context errors pass through untouched.
func mapSessionErr(err error) error {
	if errors.Is(err, session.ErrUnknownJob) ||
		errors.Is(err, session.ErrDuplicateJob) ||
		(errors.Is(err, session.ErrBadDelta) && !errors.Is(err, session.ErrInfeasible)) {
		return &BadRequestError{Msg: err.Error()}
	}
	return err
}

// wireMoves converts session moves to the wire shape.
func wireMoves(moves []session.Move) []SessionMove {
	if len(moves) == 0 {
		return nil
	}
	out := make([]SessionMove, len(moves))
	for i, m := range moves {
		out[i] = SessionMove{Job: m.Job, From: m.From, To: m.To}
	}
	return out
}
