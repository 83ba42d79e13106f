// Package agg implements the hierarchical aggregation tier (DESIGN.md §15):
// an aggregator terminates N worker sessions, merges their sparse upward
// pushes into one combined push per aggregation window, forwards it over a
// single multiplexed upstream connection, and fans the server's downward
// diff back out — computing each worker's diff against a local mirror of
// the upstream shard and encoding it once per distinct subscriber state.
// The fan-out of a window runs on every core (fanout.go): one gather and
// encode per residual-dirty worker and per clean fingerprint group, then
// one O(nnz) fold and frame copy per remaining group member, each worker
// answered as soon as its frame is built.
//
// Fidelity: merging is the union of Top-k supports with values summed in
// worker-slot order (Ozfatura et al., PAPERS.md — sparse contributions can
// be combined before the PS applies them because updates are additive), so
// the upstream server applies exactly the coordinates the workers sent.
// The mirror keeps M_agg == the upstream's v_agg bitwise (both accumulate
// the same downward diffs from zero in the same order), which is what makes
// the Eq. 5 fixpoint transitive: after drain, worker == v_k(mirror) ==
// M_agg == v_agg(upstream) == M(upstream), all bitwise.
//
// Failure model: an upstream restart (or any terminal upstream error)
// voids the mirror — the new upstream has no memory of v_agg, so every
// downward diff the mirror would compute is against forgotten state. The
// aggregator fails all in-flight windows, swaps in a fresh mirror paired
// with a fresh upstream incarnation, and fences its workers with
// transport.(*ExactlyOnce).Reset so they rejoin through hello → resync.
// The first merged window of the new incarnation hellos upstream, whose
// response is a dense snapshot that rebuilds the mirror in one apply.
package agg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/telemetry"
	"dgs/internal/transport"
)

// ErrClosed is returned to exchanges arriving after Close or Kill.
var ErrClosed = errors.New("agg: aggregator closed")

// errUpstream wraps the cause a window was failed with; workers treat it
// like any exchange failure — die, redial, rejoin as a fresh incarnation.
type errUpstream struct{ cause error }

func (e *errUpstream) Error() string { return fmt.Sprintf("agg: upstream reset: %v", e.cause) }
func (e *errUpstream) Unwrap() error { return e.cause }

// Config configures one aggregator.
type Config struct {
	// LayerSizes is the model geometry (must match workers and upstream).
	LayerSizes []int
	// MaxWorkers bounds distinct downstream worker ids (mirror slots).
	MaxWorkers int
	// Window is the merge batch size: a window is forwarded upstream when
	// this many workers contributed (default 16) or WindowWait elapsed
	// since its first contribution (default 500µs), whichever is first.
	Window     int
	WindowWait time.Duration
	// Depth is how many windows may be in flight upstream (default 2).
	Depth int
	// UpstreamWorker is this aggregator's worker id at the upstream server.
	UpstreamWorker int
	// Dial establishes the multiplexed upstream link (normally a DialMux
	// closure). Required.
	Dial func() (transport.MuxLink, error)
	// MaxRetries / Backoff / MaxBackoff shape the upstream session's
	// redial policy (zero values keep the transport defaults).
	MaxRetries int
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxInflight bounds concurrently admitted downstream exchanges
	// (0 = unbounded); RetryHint/DrainHint shape the rejection hints.
	MaxInflight int
	RetryHint   time.Duration
	DrainHint   time.Duration
	// ReplayWindow is the downstream replay cache depth (0 = transport
	// default; must cover the workers' pipeline depth).
	ReplayWindow int
	// BlockShift is the mirror's dirty-tracking block size (0 = auto).
	BlockShift uint
}

func (c *Config) normalise() error {
	if len(c.LayerSizes) == 0 {
		return errors.New("agg: empty layer geometry")
	}
	if c.MaxWorkers <= 0 {
		return errors.New("agg: MaxWorkers must be positive")
	}
	if c.Dial == nil {
		return errors.New("agg: upstream Dial required")
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.WindowWait <= 0 {
		c.WindowWait = 500 * time.Microsecond
	}
	if c.Depth < 1 {
		c.Depth = 2
	}
	return nil
}

// pending is one worker slot's in-flight exchange. A worker has at most one
// exchange outstanding (the session layer serialises per-worker frames), so
// each slot's pending struct — decode scratch, response buffer, completion
// channel — is reused without pooling.
type pending struct {
	slot  int
	upd   sparse.Update
	resp  []byte
	err   error
	ready chan struct{}

	// Fan-out state for the window being completed (see fanout.run): the
	// clean group leader this slot shares with (nil: it gathers itself),
	// and what a gather returned — G aliases the mirror's gather scratch
	// for this slot.
	lead  *pending
	G     sparse.Update
	tSeen uint64
}

// window is one aggregation batch: the contributions that will merge into a
// single upstream push.
type window struct {
	parts   []*pending
	flushed bool
	timer   *time.Timer
}

// Stats are cumulative aggregator counters.
type Stats struct {
	// Windows forwarded upstream; Parts is worker pushes they contained.
	Windows uint64
	Parts   uint64
	// PartNNZ sums the contributions' coordinates, MergedNNZ the merged
	// frames'; their ratio is the upstream dedup factor.
	PartNNZ   uint64
	MergedNNZ uint64
	// SharedFrames were served from the encode-once cache (a copy of their
	// clean fingerprint group leader's frame); EncodedFrames were encoded
	// fresh. Every part is exactly one of the two.
	SharedFrames  uint64
	EncodedFrames uint64
	// UpstreamResets counts mirror rebuilds (upstream restarts/failures).
	UpstreamResets uint64
}

// Aggregator is the in-process aggregation engine. Serve its Handler over
// any transport listener (`dgs agg` uses ListenTCP).
type Aggregator struct {
	cfg  Config
	eo   *transport.ExactlyOnce
	gate *transport.Gate

	// mirror tracks the upstream's v_agg; rebuilt (generation bumped) on
	// every upstream reset, under mu.
	mirror *ps.Mirror

	mu      sync.Mutex
	slots   map[int]int    // downstream worker id → mirror slot
	joinGen map[int]uint64 // worker id → mirror generation at last adoption
	pend    []*pending     // per mirror slot
	cur     *window        // filling window (nil between windows)
	closed  bool
	killed  bool
	stats   Stats

	// windows carries flushed windows to the forwarder. Capacity covers the
	// worst case (every worker alone in a window), so sends — made under mu
	// — never block.
	windows chan *window
	done    chan struct{}

	// Forwarder-owned state (single goroutine, no locks).
	up       *transport.PipelinedSession
	inflight []*window
	merger   sparse.Merger
	merged   sparse.Update
	down     sparse.Update
	upFrame  []byte
	srcs     []*sparse.Update
	fan      fanout
}

// New builds an aggregator and starts its upstream forwarder.
func New(cfg Config) (*Aggregator, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	a := &Aggregator{
		cfg:     cfg,
		mirror:  ps.NewMirror(cfg.LayerSizes, cfg.MaxWorkers, cfg.BlockShift),
		slots:   make(map[int]int, cfg.MaxWorkers),
		joinGen: make(map[int]uint64, cfg.MaxWorkers),
		pend:    make([]*pending, 0, cfg.MaxWorkers),
		windows: make(chan *window, cfg.MaxWorkers+1),
		done:    make(chan struct{}),
	}
	a.eo = transport.NewExactlyOnce(a.handle, a.onJoin)
	a.eo.Window = cfg.ReplayWindow
	a.gate = transport.NewGate(a.eo.Handle, cfg.MaxInflight)
	a.gate.RetryHint = cfg.RetryHint
	a.gate.DrainHint = cfg.DrainHint
	go a.run()
	return a, nil
}

// Handler is the downstream transport handler: admission gate outside the
// exactly-once session layer, same stacking as `dgs server`.
func (a *Aggregator) Handler() transport.Handler { return a.gate.Handle }

// Sessions exposes the downstream session-layer counters.
func (a *Aggregator) Sessions() transport.SessionStats { return a.eo.Stats() }

// GateStats exposes the downstream admission counters.
func (a *Aggregator) GateStats() transport.GateStats { return a.gate.Stats() }

// Drain stops admitting downstream exchanges (workers get RetryAfter
// frames and back off) and waits for the in-flight ones to finish. Call
// before Close for a graceful shutdown: once Drain returns, no window is
// mid-flight and the upstream has absorbed every acknowledged push.
func (a *Aggregator) Drain(ctx context.Context) error { return a.gate.Drain(ctx) }

// Stats snapshots the aggregation counters.
func (a *Aggregator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Mirror returns the current upstream mirror (tests; read it only when no
// exchanges are in flight).
func (a *Aggregator) Mirror() *ps.Server {
	srv, _ := a.mirror.Server()
	return srv
}

func (a *Aggregator) slotLocked(worker int) (int, error) {
	if s, ok := a.slots[worker]; ok {
		return s, nil
	}
	if len(a.slots) >= a.cfg.MaxWorkers {
		return 0, fmt.Errorf("agg: worker %d rejected: %d slots in use", worker, a.cfg.MaxWorkers)
	}
	s := len(a.pend)
	a.slots[worker] = s
	a.pend = append(a.pend, &pending{slot: s, ready: make(chan struct{}, 1)})
	return s, nil
}

// onJoin adopts a (re)joining worker: bind its slot, stamp the upstream
// generation it joined under, and resync its mirror state so the hello
// response rebuilds the replica from the mirror's current model.
func (a *Aggregator) onJoin(worker int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	slot, err := a.slotLocked(worker)
	if err != nil {
		return err
	}
	srv, gen := a.mirror.Server()
	a.joinGen[worker] = gen
	srv.Resync(slot)
	return nil
}

// handle is the inner downstream handler: decode, enqueue into the current
// window, wait for the window's upstream round trip, answer the gathered
// downward diff appended to dst. The response is always raw — workers
// decode any registered codec, and the mirror's diffs are exact. The
// fan-out encodes into the slot's reused p.resp, so the answer is a copy.
func (a *Aggregator) handle(dst []byte, worker int, payload []byte) ([]byte, error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, ErrClosed
	}
	slot, err := a.slotLocked(worker)
	if err != nil {
		a.mu.Unlock()
		return nil, err
	}
	_, gen := a.mirror.Server()
	if g, ok := a.joinGen[worker]; !ok || g != gen {
		// Adopted under a dead upstream generation: the mirror state its
		// session was built on is gone. Fail the exchange so the worker
		// rejoins (hello → resync) under the current generation.
		a.mu.Unlock()
		return nil, fmt.Errorf("agg: worker %d predates upstream reset, rejoin required", worker)
	}
	p := a.pend[slot]
	// One push that does not fit the model would make the upstream reject
	// the whole merged window; refuse it alone, here.
	if err := a.mirror.Decode(&p.upd, payload); err != nil {
		a.mu.Unlock()
		return nil, fmt.Errorf("agg: worker %d push: %w", worker, err)
	}
	w := a.cur
	if w == nil {
		w = &window{}
		a.cur = w
		w.timer = time.AfterFunc(a.cfg.WindowWait, func() {
			a.mu.Lock()
			if a.cur == w && !w.flushed {
				a.flushLocked(w)
			}
			a.mu.Unlock()
		})
	}
	w.parts = append(w.parts, p)
	if len(w.parts) >= a.cfg.Window {
		a.flushLocked(w)
	}
	a.mu.Unlock()

	<-p.ready
	if p.err != nil {
		return nil, p.err
	}
	return append(dst, p.resp...), nil
}

// flushLocked hands the window to the forwarder. Caller holds a.mu.
func (a *Aggregator) flushLocked(w *window) {
	w.flushed = true
	if w.timer != nil {
		w.timer.Stop()
	}
	if a.cur == w {
		a.cur = nil
	}
	a.stats.Windows++
	a.stats.Parts += uint64(len(w.parts))
	amet.windows.Inc()
	amet.parts.Add(uint64(len(w.parts)))
	a.windows <- w
}

// run is the upstream forwarder: the single goroutine that owns the
// pipelined upstream session and the mirror's apply/gather cycle. It keeps
// up to Depth windows in flight, eagerly completing the oldest when no new
// window is ready to submit.
func (a *Aggregator) run() {
	defer close(a.done)
	for {
		var w *window
		if len(a.inflight) == 0 {
			var ok bool
			if w, ok = <-a.windows; !ok {
				a.shutdown()
				return
			}
		} else if len(a.inflight) < a.cfg.Depth {
			select {
			case w2, ok := <-a.windows:
				if !ok {
					a.shutdown()
					return
				}
				w = w2
			default:
				a.completeOldest()
				continue
			}
		} else {
			a.completeOldest()
			continue
		}
		if a.isKilled() {
			a.failWindow(w, ErrClosed)
			continue
		}
		a.submit(w)
	}
}

// shutdown runs when the windows channel closes: complete (Close) or fail
// (Kill) the remaining in-flight windows, then release the upstream link.
func (a *Aggregator) shutdown() {
	for len(a.inflight) > 0 {
		if a.isKilled() {
			for _, w := range a.inflight {
				a.failWindow(w, ErrClosed)
			}
			a.inflight = a.inflight[:0]
			break
		}
		a.completeOldest()
	}
	if a.up != nil {
		a.up.Close()
		a.up = nil
	}
}

func (a *Aggregator) isKilled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.killed
}

// submit merges one window and forwards it upstream. Contributions are
// sorted by mirror slot first: the merge kernel's determinism contract
// makes the combined frame depend only on src order, so slot order makes it
// independent of arrival order.
func (a *Aggregator) submit(w *window) {
	parts := w.parts
	for i := 1; i < len(parts); i++ { // insertion sort, zero alloc
		for j := i; j > 0 && parts[j].slot < parts[j-1].slot; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	a.srcs = a.srcs[:0]
	partNNZ := 0
	for _, p := range parts {
		a.srcs = append(a.srcs, &p.upd)
		partNNZ += p.upd.NNZ()
	}
	a.merger.MergeInto(&a.merged, a.srcs)
	a.upFrame = sparse.AppendEncode(a.upFrame[:0], &a.merged)
	a.mu.Lock()
	a.stats.PartNNZ += uint64(partNNZ)
	a.stats.MergedNNZ += uint64(a.merged.NNZ())
	a.mu.Unlock()

	if a.up == nil {
		a.up = a.newUpstream()
	}
	// Submit copies the frame into the session's slot buffer, so upFrame is
	// free for the next window immediately.
	if err := a.up.Submit(a.cfg.UpstreamWorker, a.upFrame); err != nil {
		a.recover(append(a.inflight, w), err)
		return
	}
	a.inflight = append(a.inflight, w)
}

func (a *Aggregator) newUpstream() *transport.PipelinedSession {
	up := transport.NewPipelinedSession(a.cfg.Dial, a.cfg.Depth)
	if a.cfg.MaxRetries > 0 {
		up.MaxRetries = a.cfg.MaxRetries
	}
	if a.cfg.Backoff > 0 {
		up.Backoff = a.cfg.Backoff
	}
	if a.cfg.MaxBackoff > 0 {
		up.MaxBackoff = a.cfg.MaxBackoff
	}
	return up
}

// completeOldest finishes the oldest in-flight window: apply the upstream
// diff to the mirror once, then fan out — gather and answer every
// contributor, on every core (fanout.run).
func (a *Aggregator) completeOldest() {
	w := a.inflight[0]
	body, err := a.up.Await()
	if err != nil {
		a.recover(a.inflight, err)
		return
	}
	n := copy(a.inflight, a.inflight[1:])
	a.inflight = a.inflight[:n]
	if err := a.mirror.Decode(&a.down, body); err != nil {
		a.recover(append([]*window{w}, a.inflight...), err)
		return
	}

	// One write-lock acquisition for the whole window, however many
	// workers contributed. recover runs on this goroutine too, so srv is
	// the current mirror throughout.
	srv, _ := a.mirror.Server()
	srv.ApplyDiff(&a.down)

	shared, encoded := a.fan.run(srv, w.parts)
	a.mu.Lock()
	a.stats.SharedFrames += shared
	a.stats.EncodedFrames += encoded
	a.mu.Unlock()
	amet.shared.Add(shared)
	amet.encoded.Add(encoded)
}

func (a *Aggregator) failWindow(w *window, cause error) {
	for _, p := range w.parts {
		p.err = cause
		p.ready <- struct{}{}
	}
}

// recover handles a terminal upstream failure: the fate of every in-flight
// window is unknown and the mirror no longer provably matches the
// upstream's v_agg, so both sides reset. Windows whose pushes did commit
// upstream are still failed — their workers rejoin and resync onto a
// snapshot that already includes those pushes, so nothing is lost or
// double-applied; the uncommitted ones die with their incarnations (the
// same accepted loss as a parameter-server crash).
func (a *Aggregator) recover(failed []*window, cause error) {
	if a.up != nil {
		a.up.Close()
		a.up = nil
	}
	a.mu.Lock()
	// Fresh mirror, paired with the fresh upstream incarnation the next
	// submit dials: the new session's hello makes the upstream resync
	// v_agg to zero, and its first downward diff — dense M against that
	// zero — rebuilds this mirror in one apply, so mirror == v_agg holds
	// from the first exchange of the new generation.
	a.mirror.Rebuild()
	a.stats.UpstreamResets++
	// Everything queued behind the failure is stale too: drain the channel
	// and the filling window so their workers fail fast and rejoin.
	for {
		select {
		case w := <-a.windows:
			failed = append(failed, w)
			continue
		default:
		}
		break
	}
	if a.cur != nil {
		w := a.cur
		w.flushed = true
		if w.timer != nil {
			w.timer.Stop()
		}
		a.cur = nil
		failed = append(failed, w)
	}
	a.mu.Unlock()
	amet.resets.Inc()

	err := &errUpstream{cause: cause}
	for _, w := range failed {
		a.failWindow(w, err)
	}
	a.inflight = a.inflight[:0]
	// Fence every downstream session: established workers see a new
	// incarnation, surface ErrServerRestarted, and rejoin through the
	// hello → resync path (which stamps the new joinGen).
	a.eo.Reset()
	if a.cfg.Backoff > 0 {
		// Breathe between resets so a hard-down upstream doesn't hot-loop.
		time.Sleep(a.cfg.Backoff)
	}
}

// Close drains gracefully: stop admitting, flush the filling window,
// complete every in-flight window upstream, release the link.
func (a *Aggregator) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		<-a.done
		return nil
	}
	a.closed = true
	if a.cur != nil && !a.cur.flushed {
		a.flushLocked(a.cur)
	}
	close(a.windows)
	a.mu.Unlock()
	<-a.done
	return nil
}

// Kill simulates a crash for chaos tests: every queued and in-flight
// exchange fails immediately and nothing more is forwarded upstream.
func (a *Aggregator) Kill() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		<-a.done
		return
	}
	a.closed, a.killed = true, true
	var failed []*window
	if a.cur != nil && !a.cur.flushed {
		w := a.cur
		w.flushed = true
		if w.timer != nil {
			w.timer.Stop()
		}
		a.cur = nil
		failed = append(failed, w)
	}
	close(a.windows)
	a.mu.Unlock()
	for _, w := range failed {
		a.failWindow(w, ErrClosed)
	}
	<-a.done
}

var amet = struct {
	windows *telemetry.Counter
	parts   *telemetry.Counter
	shared  *telemetry.Counter
	encoded *telemetry.Counter
	resets  *telemetry.Counter
}{}

func init() {
	reg := telemetry.Default()
	amet.windows = reg.Counter("dgs_agg_windows_total",
		"Aggregation windows forwarded upstream as merged pushes.")
	amet.parts = reg.Counter("dgs_agg_parts_total",
		"Worker pushes merged into aggregation windows.")
	amet.shared = reg.Counter("dgs_agg_shared_frames_total",
		"Downward frames served from the encode-once share cache.")
	amet.encoded = reg.Counter("dgs_agg_encoded_frames_total",
		"Downward frames encoded fresh.")
	amet.resets = reg.Counter("dgs_agg_upstream_resets_total",
		"Mirror rebuilds after upstream restarts or terminal failures.")
}
