package transport

import (
	"context"
	"sync"
	"time"

	"dgs/internal/telemetry"
)

// Gate is the server's admission controller: a Handler wrapper that bounds
// the number of concurrently executing requests and refuses the rest with a
// RetryAfter frame instead of queueing them.
//
// Why bound here rather than let requests pile up in goroutines: the DGS
// push path holds per-worker and model locks, so admitted requests beyond
// the server's service rate only lengthen lock convoys and grow the heap —
// they never finish sooner. Shedding at admission keeps the queue in the
// workers (who back off with jitter, see PipelinedSession) where waiting is
// free, and keeps server latency bounded under overload. This is the
// paper's asynchrony story under stress: slow the senders down, never block
// the parameter server.
//
// Layering: the Gate sits OUTSIDE ExactlyOnce (Gate → ExactlyOnce →
// server). A rejected frame therefore never touches the session layer: no
// sequence number is consumed, nothing enters the replay cache, and the
// worker's retry of the same frame is a perfectly ordinary exchange rather
// than a replay. Rejection must stay cheaper than execution, or shedding
// would not shed anything.
//
// Drain mode turns the same valve the other way for graceful shutdown:
// Drain stops admitting new requests (they get RetryAfter with the drain
// hint, telling workers the outage is deliberate and bounded) and waits for
// the in-flight ones to finish, so the caller can take a final checkpoint
// with Eq. 5 intact and exit.
type Gate struct {
	// MaxInflight bounds concurrently executing requests. Zero or negative
	// disables the bound (the Gate still supports draining).
	MaxInflight int
	// RetryHint is the backoff hint attached to overload rejections.
	// Zero means "no hint": workers fall back to their own backoff schedule.
	RetryHint time.Duration
	// DrainHint is the hint attached to rejections while draining. A longer
	// hint than RetryHint is sensible: the server will be gone for a
	// restart, not a momentary spike.
	DrainHint time.Duration

	next Handler

	mu       sync.Mutex
	idle     sync.Cond // signalled when inflight drops to zero
	inflight int
	draining bool
	stats    GateStats
}

// GateStats counts admission decisions.
type GateStats struct {
	Admitted         uint64
	RejectedOverload uint64
	RejectedDrain    uint64
}

// NewGate bounds handler to maxInflight concurrent executions. The zero
// hints are fine for most callers; set RetryHint/DrainHint afterwards to
// shape worker backoff.
func NewGate(handler Handler, maxInflight int) *Gate {
	g := &Gate{MaxInflight: maxInflight, next: handler}
	g.idle.L = &g.mu
	return g
}

// Handle implements Handler with admission control.
func (g *Gate) Handle(worker int, payload []byte) ([]byte, error) {
	g.mu.Lock()
	if g.draining {
		g.stats.RejectedDrain++
		g.mu.Unlock()
		gmet.rejectedDrain.Inc()
		return nil, &RetryAfterError{After: g.DrainHint}
	}
	if g.MaxInflight > 0 && g.inflight >= g.MaxInflight {
		g.stats.RejectedOverload++
		g.mu.Unlock()
		gmet.rejectedOverload.Inc()
		return nil, &RetryAfterError{After: g.RetryHint}
	}
	g.inflight++
	g.stats.Admitted++
	gmet.inflight.Set(float64(g.inflight))
	g.mu.Unlock()

	resp, err := g.next(worker, payload)

	g.mu.Lock()
	g.inflight--
	gmet.inflight.Set(float64(g.inflight))
	if g.inflight == 0 {
		g.idle.Broadcast()
	}
	g.mu.Unlock()
	return resp, err
}

// Inflight reports the number of currently executing requests.
func (g *Gate) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// Stats snapshots the admission counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Drain stops admitting new requests and blocks until every in-flight one
// has finished or ctx is cancelled. After Drain returns nil the handler is
// quiescent: no request is executing and none will be admitted until
// Resume. Cancellation leaves the gate draining (still rejecting) — the
// caller decided to shut down; re-opening on a timeout would be worse.
func (g *Gate) Drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	if g.inflight == 0 {
		g.mu.Unlock()
		return nil
	}
	// cond.Wait cannot select on ctx; a watcher goroutine converts
	// cancellation into a broadcast so the wait loop re-checks.
	done := make(chan struct{})
	defer close(done)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				g.mu.Lock()
				g.idle.Broadcast()
				g.mu.Unlock()
			case <-done:
			}
		}()
	}
	for g.inflight > 0 && ctx.Err() == nil {
		g.idle.Wait()
	}
	g.mu.Unlock()
	return ctx.Err()
}

// Resume re-opens a drained (or draining) gate.
func (g *Gate) Resume() {
	g.mu.Lock()
	g.draining = false
	g.mu.Unlock()
}

// gmet holds the gate's telemetry handles (package-level: gates are
// per-process singletons in practice, and per-instance registration would
// collide on names anyway).
var gmet = struct {
	inflight         *telemetry.Gauge
	rejectedOverload *telemetry.Counter
	rejectedDrain    *telemetry.Counter
}{}

func init() {
	reg := telemetry.Default()
	gmet.inflight = reg.Gauge("dgs_ps_inflight_pushes",
		"Requests currently executing inside the admission gate.")
	help := "Requests refused at admission with a RetryAfter frame, by reason."
	gmet.rejectedOverload = reg.Counter("dgs_ps_pushes_rejected_total", help, "reason", "overload")
	gmet.rejectedDrain = reg.Counter("dgs_ps_pushes_rejected_total", help, "reason", "drain")
}
