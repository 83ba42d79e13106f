// Package replica implements the diff-fed read replica tier (DESIGN.md
// §12): a read-only mirror of an upstream parameter server that subscribes
// to downward diffs as a pseudo-worker — a read-session (transport
// flagReader) whose pushes are always empty — and serves the mirrored model
// to any number of local readers through incremental snapshot cursors, plus
// an HTTP endpoint for out-of-process reads.
//
// Fidelity: the upstream's exchange path already maintains, per worker, the
// sent-accumulation v_k that tracks exactly what that worker applied — the
// Eq. 5 invariant. A replica is a worker that contributes no gradient mass,
// so its v_k IS the replica contract: every downward frame it applies keeps
// mirror == v_k bitwise (for lossy codecs the server folds the projection
// error into v_k via FoldDown, the same mechanism trainers rely on), and a
// raw-framed poll returning an empty diff proves mirror == v_k == M at that
// instant. The replica never needs new server state or protocol: it rides
// the dirty-range gather, the secondary compression and the codec table
// exactly as trainers do.
//
// Staleness: reads are served from the local mirror and are stale by at
// most the polling interval plus one exchange round trip. Snapshot cuts are
// prefix-consistent views of the *upstream push order as observed through
// this replica's diff stream* — each poll applies one gather atomically, so
// a cut never shows a torn frame.
//
// Failure model: an upstream restart voids the mirror (the new upstream has
// no memory of this replica's v_k). The replica detects it through the
// session incarnation fence (ErrServerRestarted, or any terminal exchange
// failure), discards the mirror, bumps its read generation, and rejoins as
// a fresh incarnation — the hello makes the upstream Resync the slot and
// the first downward frame is a dense snapshot that rebuilds the mirror in
// one apply (the same recovery shape as the aggregation tier's upstream
// reset). Readers observe the generation bump and re-baseline their
// snapshot state instead of trusting stale incremental stamps.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/telemetry"
	"dgs/internal/transport"
)

// ErrClosed is returned by Sync after Close.
var ErrClosed = errors.New("replica: closed")

// Config configures one replica.
type Config struct {
	// LayerSizes is the model geometry (must match the upstream server).
	LayerSizes []int
	// Worker is this replica's worker id at the upstream server. Replicas
	// occupy ordinary worker slots; give each replica its own id, disjoint
	// from the trainers'.
	Worker int
	// Dial starts a fresh read-session client, one per incarnation (see
	// DialStack). Required.
	Dial func() (transport.Transport, error)
	// Codec names the downward compression requested for steady-state polls
	// ("" = raw). Lossy codecs are safe: the upstream folds the projection
	// error into this replica's v_k, so the mirror tracks v_k bitwise.
	Codec string
	// PollInterval paces the subscription (default 50ms). Reads are stale by
	// at most this plus one round trip.
	PollInterval time.Duration
	// SyncEvery makes every Nth poll a raw-framed probe (default 8, 1 pins
	// every poll raw): raw responses carry exact values, so the periodic
	// probe bounds how long quantization error can ride the mirror and is
	// what lets a quiet upstream drain to mirror == M exactly.
	SyncEvery int
	// ResyncBackoff is slept after a failed incarnation before redialling
	// (default 200ms) so a hard-down upstream is not hot-looped.
	ResyncBackoff time.Duration
}

func (c *Config) normalise() error {
	if len(c.LayerSizes) == 0 {
		return errors.New("replica: empty layer geometry")
	}
	if c.Worker < 0 {
		return errors.New("replica: negative worker id")
	}
	if c.Dial == nil {
		return errors.New("replica: Dial required")
	}
	if _, err := sparse.CodecByName(c.Codec); err != nil {
		return err
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 8
	}
	if c.ResyncBackoff <= 0 {
		c.ResyncBackoff = 200 * time.Millisecond
	}
	return nil
}

// Stats are cumulative replica counters plus the current read state.
type Stats struct {
	// Polls counts successful exchanges; EmptyPolls the subset whose diff
	// carried nothing (the replica was already current).
	Polls      uint64
	EmptyPolls uint64
	// AppliedCoords sums the coordinates folded into the mirror.
	AppliedCoords uint64
	// Resyncs counts mirror rebuilds (upstream restarts and terminal
	// exchange failures).
	Resyncs uint64
	// Rebases counts Sync-time mirror rebuilds that shed lossy-codec
	// rounding before a bitwise drain.
	Rebases uint64
	// Reads counts snapshot cuts served from the mirror.
	Reads uint64
	// Generation is the current read generation (bumped per resync).
	Generation uint64
	// Stamp is the mirror's logical clock (diffs applied this generation).
	Stamp uint64
	// Staleness is the time since the last successful poll (zero before the
	// first).
	Staleness time.Duration
}

// Replica is the in-process replica engine. Start it with New; serve reads
// through Snapshot/MSnapshot or the HTTP Handler.
type Replica struct {
	cfg   Config
	codec sparse.Codec
	probe []byte // empty update framed in the requested codec
	raw   []byte // empty update framed raw (exact probe)

	// mirror tracks this slot's upstream v_k; the poll loop is its only
	// writer. Its generation is the read generation.
	mirror *ps.Mirror

	polls      atomic.Uint64
	emptyPolls atomic.Uint64
	coords     atomic.Uint64
	resyncs    atomic.Uint64
	rebases    atomic.Uint64
	reads      atomic.Uint64
	lastPoll   atomic.Int64 // unix nanos of the last successful exchange

	errMu   sync.Mutex
	lastErr error
	fatal   error

	syncReq chan syncRequest
	stop    chan struct{}
	done    chan struct{}

	// Poll-goroutine-owned state.
	tr      transport.Transport
	pollSeq int
	scratch sparse.Update
	// lossyApplied records that a non-raw frame landed since the mirror was
	// last (re)based. FoldDown keeps the upstream v_k within one float32
	// rounding of this mirror — close enough for serving reads, but the
	// rounding is sticky: raw drain diffs are computed against v_k, so they
	// can never cancel it. Sync therefore re-bases a lossy mirror (fresh
	// incarnation → dense raw snapshot) before draining; a raw-only
	// incarnation replays the exact float sequence v_k sees and stays
	// bitwise equal without rebasing.
	lossyApplied bool
}

type syncRequest struct {
	ctx context.Context
	c   chan error
}

// New validates the configuration and starts the subscription loop.
func New(cfg Config) (*Replica, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	codec, _ := sparse.CodecByName(cfg.Codec)
	var empty sparse.Update
	r := &Replica{
		cfg:     cfg,
		codec:   codec,
		probe:   codec.AppendEncode(nil, &empty),
		raw:     sparse.AppendEncode(nil, &empty),
		mirror:  ps.NewMirror(cfg.LayerSizes, 1),
		syncReq: make(chan syncRequest),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.run()
	return r, nil
}

// DialStack returns a Config.Dial building the canonical client: a
// reader-role PipelinedSession at depth 1 (redial + replay) over a mux link
// with a per-exchange deadline. Zero durations / counts keep the transport
// defaults.
func DialStack(addr string, timeout time.Duration, retries int, backoff, maxBackoff time.Duration) func() (transport.Transport, error) {
	return func() (transport.Transport, error) {
		s := transport.NewPipelinedSession(func() (transport.MuxLink, error) {
			c, err := transport.DialMux(addr)
			if err != nil {
				return nil, err
			}
			c.ExchangeTimeout = timeout
			return c, nil
		}, 1)
		s.Reader = true
		if retries > 0 {
			s.MaxRetries = retries
		}
		if backoff > 0 {
			s.Backoff = backoff
		}
		if maxBackoff > 0 {
			s.MaxBackoff = maxBackoff
		}
		return s, nil
	}
}

// run is the subscription loop: one goroutine owns the upstream transport
// and is the mirror's only writer.
func (r *Replica) run() {
	defer close(r.done)
	defer r.closeLink()
	tick := time.NewTicker(r.cfg.PollInterval)
	defer tick.Stop()
	// Subscribe eagerly: the first poll's hello rebuilds the mirror from a
	// dense snapshot without waiting out a full interval.
	r.pollOnce(false)
	for {
		select {
		case <-r.stop:
			return
		case req := <-r.syncReq:
			req.c <- r.syncUntilDrained(req.ctx)
		case <-tick.C:
			if r.fatalErr() != nil {
				return
			}
			r.pollOnce(false)
		}
	}
}

// pollOnce performs one subscription exchange: empty push up, diff down,
// apply. forceRaw pins the frame to codec 0 (exact values) regardless of
// the poll cadence. Returns the applied diff's coordinate count, or an
// error when the incarnation died (the mirror has already been reset).
func (r *Replica) pollOnce(forceRaw bool) (int, error) {
	if err := r.fatalErr(); err != nil {
		return 0, err
	}
	if r.tr == nil {
		tr, err := r.cfg.Dial()
		if err != nil {
			r.noteErr(err)
			return 0, err
		}
		r.tr = tr
	}
	frame := r.probe
	r.pollSeq++
	if forceRaw || r.pollSeq%r.cfg.SyncEvery == 0 {
		frame = r.raw
	}
	resp, err := r.tr.Exchange(r.cfg.Worker, frame)
	if err != nil {
		r.resync(err)
		return 0, err
	}
	nnz, err := r.applyFrame(resp)
	if err != nil {
		// A frame no codec can decode (or that does not fit the
		// model geometry) means the link is feeding us garbage; treat it
		// like a dead incarnation rather than guessing.
		r.resync(err)
		return 0, err
	}
	r.polls.Add(1)
	rmet.polls.Inc()
	if nnz == 0 {
		r.emptyPolls.Add(1)
		rmet.emptyPolls.Inc()
	} else {
		r.coords.Add(uint64(nnz))
		rmet.coords.Add(uint64(nnz))
		if id, cerr := sparse.FrameCodecID(resp); cerr == nil && id != sparse.CodecRaw {
			r.lossyApplied = true
		}
	}
	r.lastPoll.Store(time.Now().UnixNano())
	return nnz, nil
}

// applyFrame decodes one downward frame and folds it into the mirror unless
// it is empty, so the mirror's clock counts applied diffs. The frame is
// hostile input until the mirror's Decode validates it against the model
// geometry (FuzzReplicaFrame pins this).
func (r *Replica) applyFrame(resp []byte) (int, error) {
	if err := r.mirror.Decode(&r.scratch, resp); err != nil {
		return 0, fmt.Errorf("replica: downward frame: %w", err)
	}
	nnz := r.scratch.NNZ()
	if nnz > 0 {
		srv, _ := r.mirror.Server()
		srv.ApplyDiff(&r.scratch)
	}
	return nnz, nil
}

func (r *Replica) closeLink() {
	if r.tr != nil {
		r.tr.Close()
		r.tr = nil
	}
}

// rebuild ends the current incarnation and discards the mirror, the one
// path both resync and the Sync-time rebase take: the next poll's hello
// makes the upstream Resync this slot (v_k ← 0), and its first downward
// frame, dense M against that zero, rebuilds the fresh mirror in one apply —
// mirror == v_k by construction. Readers see the generation bump and
// re-baseline. A rebuilt mirror has absorbed no lossy frame yet.
func (r *Replica) rebuild() {
	r.closeLink()
	r.mirror.Rebuild()
	r.lossyApplied = false
}

// resync handles a terminal incarnation failure: the upstream either
// restarted (incarnation fence) or became unreachable past the redial
// budget, and in both cases the next session's hello zeroes this slot's
// v_k server-side, so the mirror is rebuilt.
func (r *Replica) resync(cause error) {
	if errors.Is(cause, transport.ErrStaleSession) {
		// Another live incarnation owns this worker id (a second replica
		// misconfigured onto the same slot). Rejoining would fence out the
		// legitimate owner; park instead.
		r.closeLink()
		r.setFatal(fmt.Errorf("replica: worker %d superseded: %w", r.cfg.Worker, cause))
		return
	}
	r.rebuild()
	r.resyncs.Add(1)
	rmet.resyncs.Inc()
	r.noteErr(cause)
	select {
	case <-r.stop:
	case <-time.After(r.cfg.ResyncBackoff):
	}
}

// syncUntilDrained raw-polls until a poll applies nothing — proof that
// mirror == v_k == M at that exchange — retrying failed incarnations until
// ctx expires. A mirror that has absorbed lossy frames is re-based (rebuilt)
// first so the drained state is bitwise M, not M up to FoldDown rounding:
// the dense raw rebuild plus raw-only polls replay exactly the float
// sequence the upstream folds into v_k, which incremental raw diffs cannot
// (they are computed against v_k, which a FoldDown rounding may have nudged
// off this mirror by one ULP).
func (r *Replica) syncUntilDrained(ctx context.Context) error {
	if r.lossyApplied {
		r.rebuild()
		r.rebases.Add(1)
		rmet.rebases.Inc()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		nnz, err := r.pollOnce(true)
		if err == nil && nnz == 0 {
			return nil
		}
		if ferr := r.fatalErr(); ferr != nil {
			return ferr
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.stop:
			return ErrClosed
		default:
		}
	}
}

// Sync blocks until the replica proves itself current: a raw-framed poll
// whose diff is empty (mirror == upstream M at that exchange, bitwise).
// With trainers still pushing this is a moving target; Sync is the drain
// primitive — quiesce the upstream, then Sync, then read.
func (r *Replica) Sync(ctx context.Context) error {
	req := syncRequest{ctx: ctx, c: make(chan error, 1)}
	select {
	case r.syncReq <- req:
	case <-r.done:
		// A parked loop exits on its own; report why, not "closed".
		if err := r.fatalErr(); err != nil {
			return err
		}
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-req.c:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ReaderState is one reader's incremental snapshot cursor: a cut buffer
// with the mirror clock of its last cut, plus the generation it belongs to.
// Not safe for concurrent use; give each reader its own.
type ReaderState struct {
	gen uint64
	st  *ps.SnapshotState
}

// NewReaderState returns an empty cursor; the first Snapshot through it
// performs a full copy, later ones copy only blocks that changed.
func (r *Replica) NewReaderState() *ReaderState { return &ReaderState{} }

// Snapshot serves one consistent cut of the mirrored model, copying only the
// blocks the mirror applied since rs's last cut. The returned slices belong
// to rs and stay valid until its next Snapshot. stamp is the mirror's
// logical clock (diffs applied since the generation began); gen is the read
// generation — when it differs from a previous cut's, the upstream restarted
// in between and stamps are not comparable across the boundary.
func (r *Replica) Snapshot(rs *ReaderState) (model [][]float32, stamp, gen uint64) {
	mirror, g := r.mirror.Server()
	if rs.st == nil || rs.gen != g {
		rs.st = mirror.NewSnapshotState()
		rs.gen = g
	}
	ts := mirror.Snapshot(rs.st)
	r.reads.Add(1)
	rmet.reads.Inc()
	return rs.st.Model(), ts, g
}

// MSnapshot copies the mirrored model into dst (caller-allocated, one slice
// per layer) and returns the cut's stamp and generation.
func (r *Replica) MSnapshot(dst [][]float32) (stamp, gen uint64) {
	mirror, g := r.mirror.Server()
	ts := mirror.MSnapshot(dst)
	r.reads.Add(1)
	rmet.reads.Inc()
	return ts, g
}

// Err returns the fatal error that parked the subscription loop, if any
// (currently only worker-slot supersession).
func (r *Replica) Err() error { return r.fatalErr() }

// Stats snapshots the replica counters.
func (r *Replica) Stats() Stats {
	mirror, gen := r.mirror.Server()
	st := Stats{
		Polls:         r.polls.Load(),
		EmptyPolls:    r.emptyPolls.Load(),
		AppliedCoords: r.coords.Load(),
		Resyncs:       r.resyncs.Load(),
		Rebases:       r.rebases.Load(),
		Reads:         r.reads.Load(),
		Generation:    gen,
		Stamp:         mirror.Timestamp(),
	}
	if last := r.lastPoll.Load(); last > 0 {
		st.Staleness = time.Since(time.Unix(0, last))
		rmet.staleness.Set(st.Staleness.Seconds())
	}
	return st
}

func (r *Replica) noteErr(err error) {
	r.errMu.Lock()
	r.lastErr = err
	r.errMu.Unlock()
}

func (r *Replica) setFatal(err error) {
	r.errMu.Lock()
	if r.fatal == nil {
		r.fatal = err
	}
	r.lastErr = err
	r.errMu.Unlock()
}

func (r *Replica) fatalErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.fatal
}

// LastErr returns the most recent subscription error (transient or fatal).
func (r *Replica) LastErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.lastErr
}

// Close stops the subscription loop and releases the upstream link. Reads
// keep working against the frozen mirror.
func (r *Replica) Close() error {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
	return nil
}

var rmet = struct {
	polls      *telemetry.Counter
	emptyPolls *telemetry.Counter
	coords     *telemetry.Counter
	resyncs    *telemetry.Counter
	rebases    *telemetry.Counter
	reads      *telemetry.Counter
	staleness  *telemetry.Gauge
}{}

func init() {
	reg := telemetry.Default()
	rmet.polls = reg.Counter("dgs_replica_polls_total",
		"Successful subscription exchanges against the upstream server.")
	rmet.emptyPolls = reg.Counter("dgs_replica_empty_polls_total",
		"Polls whose downward diff was empty (replica already current).")
	rmet.coords = reg.Counter("dgs_replica_applied_coords_total",
		"Downward diff coordinates folded into the local mirror.")
	rmet.resyncs = reg.Counter("dgs_replica_resyncs_total",
		"Mirror rebuilds after upstream restarts or terminal failures.")
	rmet.rebases = reg.Counter("dgs_replica_rebases_total",
		"Sync-time mirror rebuilds that shed accumulated lossy-codec rounding.")
	rmet.reads = reg.Counter("dgs_replica_reads_total",
		"Snapshot cuts served from the mirrored model.")
	rmet.staleness = reg.Gauge("dgs_replica_staleness_seconds",
		"Seconds since the last successful poll, sampled at Stats calls.")
}
