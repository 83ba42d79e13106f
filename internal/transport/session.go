package transport

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Exactly-once session protocol.
//
// The raw framing in tcp.go delivers at-most-once per connection: a lost
// request, a torn response, or a duplicated frame after a reconnect all
// leave the client unsure whether the server applied the exchange. For a
// DGS parameter server that ambiguity is fatal — Push is not idempotent
// (a re-applied update subtracts g from M twice) and a dropped response
// loses a model difference G the server has already committed to v_k,
// permanently breaking the Eq. 5 invariant that the worker's replica
// mirrors v_k. Residual-bearing sparse updates can never be recomputed,
// so the transport has to deliver each exchange exactly once.
//
// The protocol adds a small envelope inside the existing frame payload:
//
//	request:  u32 magic "DGSS" | u8 version | u8 flags | u64 session |
//	          u64 seq | application payload
//	response: u32 magic "DGSR" | u8 version | u8 status | u64 epoch |
//	          u64 incarnation | application payload (or error text)
//
// Each client incarnation owns one random session id; each logical exchange
// gets the next sequence number. Retries (see PipelinedSession) re-send the
// same envelope bytes, so the server can recognise them: the ExactlyOnce
// middleware keeps, per worker, the last sequence number it executed and
// the full encoded response, and answers a repeated (session, seq) from
// that replay cache without re-invoking the handler. A frame without the
// envelope is refused with an error frame: no client is sessionless.
//
// Crash/rejoin: a client's first exchange carries flagHello. A hello with a
// new session id declares a new worker incarnation — the middleware bumps
// the worker's epoch, invokes the OnJoin hook (the parameter server resets
// v_k there, so the first response ships a dense snapshot that rebuilds the
// fresh replica), and adopts the session. Any non-hello frame whose session
// does not match the current one is a straggler from a dead incarnation and
// is rejected with statusStaleSession — it can never mutate server state.
//
// Server restart (protocol v2): every response carries the server's own
// incarnation id, drawn at random when the ExactlyOnce middleware is built
// (or restored from a checkpoint's metadata). Clients pin the first
// incarnation they observe; a response carrying a different one proves the
// server lost its session table — typically a crash/restart, where the old
// session is unknown and the frame bounced with statusStaleSession. That
// MUST NOT be treated like worker supersession (which is fatal): the client
// surfaces ErrServerRestarted and the caller rejoins with a fresh session,
// whose hello makes the server resync the worker against its restored
// state.
const (
	sessionReqMagic  = 0x53534744 // "DGSS" little endian
	sessionRespMagic = 0x52534744 // "DGSR" little endian
	sessionVersion   = 2

	reqHeaderLen  = 4 + 1 + 1 + 8 + 8
	respHeaderLen = 4 + 1 + 1 + 8 + 8
)

const (
	flagHello = 0x01
	// flagReader marks a read-session: the client subscribes to downward
	// diffs (a replica or evaluator feeding a model mirror) and never
	// contributes gradient mass of its own. The server's exchange semantics
	// are identical — a reader is a worker whose pushes are empty — but the
	// role is declared in the envelope so operators can tell replica slots
	// from trainer slots in /metrics and logs, and so future policy (slot
	// quotas, read-only fencing) has a protocol hook. Evaluated when a hello
	// is adopted; clients set it on every frame of the session.
	flagReader = 0x02
)

// Session-level response statuses. statusOK/statusError are shared with the
// TCP framing layer (same semantics: OK payload vs error text).
const (
	statusStaleSession = 0x02
	statusBadSeq       = 0x03
)

// ErrStaleSession is returned when the server has adopted a newer
// incarnation for this worker id. The exchange was NOT applied.
// Recovery means starting a fresh session (rebuild the replica and hello
// again); retrying the same frame can never succeed.
var ErrStaleSession = errors.New("transport: session superseded by a newer worker incarnation")

// ErrBadSeq is returned when the server saw a sequence number it cannot
// order against the worker's replay window — a protocol violation (e.g. two
// live clients sharing a session). The exchange was NOT applied.
var ErrBadSeq = errors.New("transport: sequence number out of order")

// ErrServerRestarted is returned when a response carries a different server
// incarnation than previously observed: the server lost its session table
// (crash/restart) and the exchange's fate there is unknown. Unlike
// ErrStaleSession this is recoverable — re-establish the session (hello →
// resync) and continue; the resilient worker loop does exactly that.
var ErrServerRestarted = errors.New("transport: server restarted (new incarnation)")

// appendSessionReq encodes the session envelope into dst's capacity: the
// pipelined session's per-slot frame buffers grow once and survive until
// the exchange resolves, for replay.
func appendSessionReq(dst []byte, flags byte, session, seq uint64, payload []byte) []byte {
	need := reqHeaderLen + len(payload)
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	binary.LittleEndian.PutUint32(dst, sessionReqMagic)
	dst[4] = sessionVersion
	dst[5] = flags
	binary.LittleEndian.PutUint64(dst[6:], session)
	binary.LittleEndian.PutUint64(dst[14:], seq)
	copy(dst[reqHeaderLen:], payload)
	return dst
}

func decodeSessionReq(b []byte) (flags byte, session, seq uint64, payload []byte, err error) {
	if len(b) < reqHeaderLen || binary.LittleEndian.Uint32(b) != sessionReqMagic {
		return 0, 0, 0, nil, errors.New("transport: not a session frame")
	}
	if b[4] != sessionVersion {
		return 0, 0, 0, nil, fmt.Errorf("transport: session protocol version %d unsupported", b[4])
	}
	return b[5], binary.LittleEndian.Uint64(b[6:]), binary.LittleEndian.Uint64(b[14:]), b[reqHeaderLen:], nil
}

// respReserve is the envelope prefix ExactlyOnce hands its AppendHandler as
// dst. Its capacity is exactly its length, so the handler's first append
// makes the response's one allocation and nothing ever writes into the
// shared array itself.
var respReserve [respHeaderLen]byte

// putSessionResp writes the response envelope into buf's first
// respHeaderLen bytes, in place.
func putSessionResp(buf []byte, status byte, epoch, incarnation uint64) {
	binary.LittleEndian.PutUint32(buf, sessionRespMagic)
	buf[4] = sessionVersion
	buf[5] = status
	binary.LittleEndian.PutUint64(buf[6:], epoch)
	binary.LittleEndian.PutUint64(buf[14:], incarnation)
}

func encodeSessionResp(status byte, epoch, incarnation uint64, payload []byte) []byte {
	buf := make([]byte, respHeaderLen+len(payload))
	putSessionResp(buf, status, epoch, incarnation)
	copy(buf[respHeaderLen:], payload)
	return buf
}

func decodeSessionResp(b []byte) (status byte, epoch, incarnation uint64, payload []byte, err error) {
	if len(b) < respHeaderLen || binary.LittleEndian.Uint32(b) != sessionRespMagic {
		return 0, 0, 0, nil, errors.New("transport: not a session response")
	}
	if b[4] != sessionVersion {
		return 0, 0, 0, nil, fmt.Errorf("transport: session protocol version %d unsupported", b[4])
	}
	return b[5], binary.LittleEndian.Uint64(b[6:]), binary.LittleEndian.Uint64(b[14:]), b[respHeaderLen:], nil
}

// patchSessionRespIncarnation rewrites the incarnation field of an encoded
// session response in place. Used by fault injection (FaultConfig.
// ServerRestart) to simulate a restarted server without a process kill;
// non-session payloads are left untouched.
func patchSessionRespIncarnation(b []byte, delta uint64) {
	if len(b) < respHeaderLen || binary.LittleEndian.Uint32(b) != sessionRespMagic {
		return
	}
	binary.LittleEndian.PutUint64(b[14:], binary.LittleEndian.Uint64(b[14:])+delta)
}

func randomSession() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("transport: session id entropy unavailable: %v", err))
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1 // zero is reserved as "no session" in the server table
	}
	return id
}

// SessionStats is a snapshot of the ExactlyOnce middleware counters.
type SessionStats struct {
	// Exchanges counts session frames executed against the handler.
	Exchanges uint64
	// Replays counts retried frames answered from the replay cache without
	// re-invoking the handler.
	Replays uint64
	// Hellos counts new incarnations adopted (== resyncs triggered).
	Hellos uint64
	// ReaderHellos counts adopted incarnations that declared the
	// read-session role (replica/evaluator diff subscribers).
	ReaderHellos uint64
	// StaleRejected counts frames rejected for carrying a superseded
	// session.
	StaleRejected uint64
	// BadSeq counts frames rejected for unorderable sequence numbers.
	BadSeq uint64
	// Resets counts incarnation resets (Reset calls) fencing every session.
	Resets uint64
	// ReplayBytes is the capacity of the responses the replay cache
	// currently retains, summed over every worker: a level, not a counter.
	// Stores and evictions move it, and a hello or Reset drops what the
	// discarded windows held.
	ReplayBytes uint64
}

// DefaultReplayWindow is the per-worker replay cache depth: the server can
// answer a retry of any of the last DefaultReplayWindow executed exchanges.
// A pipelined client may have PipelineDepth requests in flight when a
// connection dies, and on reconnect it replays the whole window oldest
// first — so the cache must hold at least PipelineDepth entries or a replay
// of the oldest in-flight frame would land beyond the window and be
// rejected as BadSeq. 16 covers every supported pipeline depth with slack.
// Entries are the response frames themselves — each executed exchange's
// one allocation, which the TCP server also wrote — so the cache costs no
// copies, only retention: up to DefaultReplayWindow downward frames per
// worker (SessionStats.ReplayBytes reports the total).
const DefaultReplayWindow = 16

// replayEntry caches one executed exchange's full encoded response.
type replayEntry struct {
	seq  uint64
	resp []byte
}

// workerSession is the per-worker exactly-once state.
type workerSession struct {
	mu      sync.Mutex
	session uint64 // current incarnation's session id (0 = none yet)
	epoch   uint64 // incarnation counter, bumped on every adopted hello
	// reader records whether the current incarnation declared the
	// read-session role. Atomic (not under mu) because the codec layer
	// queries it from inside the handler, which Handle invokes while
	// holding mu.
	reader  atomic.Bool
	lastSeq uint64 // highest executed sequence number
	// window is a ring of the last executed exchanges' responses, indexed
	// by seq % len(window) (the replay cache).
	window []replayEntry
}

// lookup returns the cached response for seq, or nil when it has been
// evicted (or was never executed by this incarnation).
func (ws *workerSession) lookup(seq uint64) []byte {
	ent := &ws.window[seq%uint64(len(ws.window))]
	if ent.seq == seq && ent.resp != nil {
		return ent.resp
	}
	return nil
}

// store caches the response for seq, evicting whatever occupied its ring
// slot, and returns the evicted response's capacity.
func (ws *workerSession) store(seq uint64, resp []byte) (evicted int) {
	ent := &ws.window[seq%uint64(len(ws.window))]
	evicted = cap(ent.resp)
	*ent = replayEntry{seq: seq, resp: resp}
	return evicted
}

// drop empties the replay cache and returns the capacity it held.
func (ws *workerSession) drop() (held int) {
	for _, ent := range ws.window {
		held += cap(ent.resp)
	}
	clear(ws.window)
	return held
}

// AppendHandler is the application handler ExactlyOnce wraps. It appends
// its response payload to dst and returns the extended slice, or an error
// whose text becomes the error frame. dst holds the session envelope's
// reserved respHeaderLen-byte prefix and has no spare capacity, so the
// handler's first append makes the response's one allocation — sized by
// the handler, e.g. sparse.AppendEncode's bound — and the middleware then
// writes the envelope into the prefix in place. That one buffer is what
// the TCP server writes and what the replay cache keeps: the handler must
// return dst extended (never a different slice) and must not touch the
// returned bytes afterwards. A handler producing its payload in a buffer it
// reuses appends a copy.
type AppendHandler func(dst []byte, worker int, payload []byte) ([]byte, error)

// ExactlyOnce is server-side middleware that upgrades an AppendHandler to
// exactly-once semantics under the session protocol: duplicate frames are
// answered from a per-worker replay cache, stale incarnations are fenced
// off by epoch, and new incarnations trigger the OnJoin resync hook before
// their first exchange executes.
type ExactlyOnce struct {
	h AppendHandler
	// onJoin runs when a new incarnation of a worker is adopted, before its
	// first exchange reaches the handler. The parameter server resets the
	// worker's difference accumulator here.
	onJoin func(worker int) error

	// Window is the per-worker replay cache depth (defaults to
	// DefaultReplayWindow when zero). It must be at least the largest
	// client PipelineDepth; set it before the first exchange.
	Window int

	// incarnation identifies this server process in every response (see the
	// restart-detection protocol comment). It changes only through Reset;
	// Handle reads it once per frame so a single response is internally
	// consistent even when a Reset lands mid-exchange.
	incarnation atomic.Uint64

	mu      sync.Mutex
	workers map[int]*workerSession
	stats   SessionStats
}

// NewExactlyOnce wraps a handler. onJoin may be nil. The middleware draws a
// fresh random incarnation id: by construction a restarted server announces
// a different incarnation than its predecessor.
func NewExactlyOnce(h AppendHandler, onJoin func(worker int) error) *ExactlyOnce {
	e := &ExactlyOnce{h: h, onJoin: onJoin, workers: map[int]*workerSession{}}
	e.incarnation.Store(randomSession())
	return e
}

// Incarnation returns the server incarnation id sent in every response.
func (e *ExactlyOnce) Incarnation() uint64 { return e.incarnation.Load() }

// Reset adopts a fresh incarnation and discards every worker session and
// replay cache, exactly as if the process hosting this middleware had
// crashed and restarted — without dropping TCP connections. From the next
// frame on, every client observes an incarnation change, surfaces
// ErrServerRestarted, and re-hellos through the OnJoin resync path. An
// aggregator calls this when its upstream restarts: the local mirror it
// rebuilds from the new upstream has no memory of its workers' v_k, so the
// workers must be fenced into resyncing rather than served diffs computed
// against forgotten state. Exchanges already executing finish against the
// old incarnation (they read it at entry); their workers are fenced on the
// following frame.
func (e *ExactlyOnce) Reset() {
	e.mu.Lock()
	e.workers = map[int]*workerSession{}
	e.stats.Resets++
	tmet.sessReplayBytes.Add(-float64(e.stats.ReplayBytes))
	e.stats.ReplayBytes = 0
	e.mu.Unlock()
	e.incarnation.Store(randomSession())
	tmet.sessResets.Inc()
}

// ReaderSession reports whether worker's current session incarnation
// declared the read-session role. Safe to call from inside the wrapped
// handler (the codec layer does, to tell reader polls from drain probes).
func (e *ExactlyOnce) ReaderSession(worker int) bool {
	e.mu.Lock()
	ws := e.workers[worker]
	e.mu.Unlock()
	if ws == nil {
		return false
	}
	return ws.reader.Load()
}

// Stats snapshots the middleware counters.
func (e *ExactlyOnce) Stats() SessionStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *ExactlyOnce) workerState(worker int) *workerSession {
	e.mu.Lock()
	defer e.mu.Unlock()
	ws := e.workers[worker]
	if ws == nil {
		w := e.Window
		if w <= 0 {
			w = DefaultReplayWindow
		}
		ws = &workerSession{window: make([]replayEntry, w)}
		e.workers[worker] = ws
	}
	return ws
}

func (e *ExactlyOnce) count(f func(*SessionStats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}

// retain moves the replay-cache byte level by added − released for worker's
// session ws, together with f's counter updates. A ws that a Reset has
// orphaned is skipped: the Reset already released everything it held.
func (e *ExactlyOnce) retain(worker int, ws *workerSession, added, released int, f func(*SessionStats)) {
	e.mu.Lock()
	f(&e.stats)
	if e.workers[worker] == ws {
		e.stats.ReplayBytes += uint64(added)
		e.stats.ReplayBytes -= uint64(released)
		tmet.sessReplayBytes.Add(float64(added - released))
	}
	e.mu.Unlock()
}

// Handle is the wrapped Handler: pass it to ListenTCP.
func (e *ExactlyOnce) Handle(worker int, payload []byte) ([]byte, error) {
	flags, session, seq, app, err := decodeSessionReq(payload)
	if err != nil {
		// A frame without the envelope cannot be deduplicated, so it never
		// reaches the handler: the server answers it with an error frame.
		return nil, err
	}
	// One consistent incarnation per frame: a Reset landing mid-exchange
	// must not produce a response mixing old-world state with the new id.
	inc := e.incarnation.Load()
	ws := e.workerState(worker)
	ws.mu.Lock()
	defer ws.mu.Unlock()

	if session != ws.session {
		if flags&flagHello == 0 {
			// Straggler from a dead incarnation (or an unknown session that
			// never said hello): fence it off without touching state.
			e.count(func(s *SessionStats) { s.StaleRejected++ })
			tmet.sessStale.Inc()
			return encodeSessionResp(statusStaleSession, ws.epoch, inc, nil), nil
		}
		// New incarnation: bump the epoch, resync, adopt. The hello frame
		// itself then executes as the incarnation's first exchange, so its
		// response carries the post-resync state (a dense snapshot when the
		// handler is a DGS parameter server).
		if e.onJoin != nil {
			if err := e.onJoin(worker); err != nil {
				return encodeSessionResp(statusError, ws.epoch, inc,
					[]byte(fmt.Sprintf("join worker %d: %v", worker, err))), nil
			}
		}
		ws.session = session
		ws.epoch++
		ws.reader.Store(flags&flagReader != 0)
		// Baseline the replay window on the hello's own sequence number:
		// frames the server never saw (lost before delivery) must not block
		// the incarnation from joining.
		ws.lastSeq = seq - 1
		e.retain(worker, ws, 0, ws.drop(), func(s *SessionStats) { s.Hellos++ })
		tmet.sessHellos.Inc()
		if ws.reader.Load() {
			e.count(func(s *SessionStats) { s.ReaderHellos++ })
			tmet.sessReaderHellos.Inc()
		}
	}

	switch {
	case seq <= ws.lastSeq:
		// Retransmission of an already-executed exchange (lost response,
		// duplicated frame, or a pipelined client replaying its whole
		// in-flight window after a reconnect): answer from the replay
		// cache, do NOT re-run the handler — this is the exactly-once
		// guarantee. An entry evicted from the ring (a rewind further back
		// than the window) is unanswerable; refuse rather than guess.
		if resp := ws.lookup(seq); resp != nil {
			e.count(func(s *SessionStats) { s.Replays++ })
			tmet.sessReplays.Inc()
			return resp, nil
		}
		e.count(func(s *SessionStats) { s.BadSeq++ })
		tmet.sessBadSeq.Inc()
		return encodeSessionResp(statusBadSeq, ws.epoch, inc, nil), nil
	case seq == ws.lastSeq+1:
		resp, herr := e.h(respReserve[:], worker, app)
		switch {
		case herr != nil:
			// Cache failures too: the handler rejected this frame without
			// applying it (decode errors precede any mutation), and a retry
			// of the same bytes must fail identically rather than re-enter
			// the handler.
			resp = encodeSessionResp(statusError, ws.epoch, inc, []byte(herr.Error()))
		case len(resp) == respHeaderLen:
			// Nothing appended: resp may still be the shared reservation.
			resp = encodeSessionResp(statusOK, ws.epoch, inc, nil)
		default:
			putSessionResp(resp, statusOK, ws.epoch, inc)
		}
		ws.lastSeq = seq
		evicted := ws.store(seq, resp)
		e.retain(worker, ws, cap(resp), evicted, func(s *SessionStats) { s.Exchanges++ })
		tmet.sessExchanges.Inc()
		return resp, nil
	default:
		// A sequence gap: frames on one connection arrive in order, and a
		// reconnecting client replays its window oldest-first, so a gap
		// means two live clients share a session (a protocol violation).
		e.count(func(s *SessionStats) { s.BadSeq++ })
		tmet.sessBadSeq.Inc()
		return encodeSessionResp(statusBadSeq, ws.epoch, inc, nil), nil
	}
}
