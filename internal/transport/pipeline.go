package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Pipelined exchange path.
//
// A synchronous exchange pays one full network round trip per training
// step: encode → round trip → decode → next forward pass. A Pipeliner splits
// Exchange into Submit (send the request, return immediately) and Await
// (block for the oldest in-flight response), so the worker can compute step
// t+1 while step t's round trip is on the wire. With depth D the worker
// keeps up to D exchanges in flight and applies each downward difference at
// the next batch boundary — bounded-delay asynchronous SGD with a
// client-side delay of at most D−1 steps on top of the server-side
// staleness the PS already accounts for. Depth 1 is the synchronous
// exchange: Submit, then Await at once.
//
// PipelinedSession is the worker-side implementation over the network;
// Loopback is the in-process one.
type Pipeliner interface {
	Transport
	// Submit enqueues one exchange and returns without waiting for the
	// response. The payload bytes are owned by the transport until the
	// corresponding Await returns (they may be retained for
	// replay-on-reconnect); callers keep a ring of at least depth+1 encode
	// buffers. Submitting more than the configured depth without awaiting
	// is a caller bug and fails.
	Submit(worker int, payload []byte) error
	// Await blocks for the oldest in-flight exchange and returns its
	// response. The returned slice is valid until the next Await on this
	// pipeliner. Responses resolve strictly in submit order.
	Await() ([]byte, error)
	// InFlight returns the number of submitted, not-yet-awaited exchanges.
	InFlight() int
}

// errWindowFull and errWindowEmpty are Submit/Await misuse, not network
// faults: the trainer bounds in-flight exchanges itself.
var (
	errWindowFull  = errors.New("transport: pipeline window full (submit without await)")
	errWindowEmpty = errors.New("transport: pipeline window empty (await without submit)")
)

// pipeSlot is one in-flight exchange in a PipelinedSession's window.
type pipeSlot struct {
	worker int
	seq    uint64
	// frame is the full encoded session envelope, grown once and retained
	// verbatim until the exchange resolves: replay-on-reconnect re-sends
	// these exact bytes so the server's replay window can deduplicate.
	frame []byte
	// resp is the slot's grow-once response buffer.
	resp      []byte
	wireID    uint64
	submitted bool // written on the current link
	everSent  bool // written on any link (a later send is a replay)
	sent      time.Time
}

// PipelinedSession is the worker-side client: the session/seq exactly-once
// envelope (see session.go), bounded retry with redial, and wire-v2
// multiplexed framing (MuxConn), keeping up to Depth exchanges physically
// in flight on a single connection. No goroutines: the kernel socket
// buffers carry the overlap.
//
// Failure handling: any network fault closes the link; the next Await
// redials (bounded by MaxRetries per await, with capped full-jitter
// exponential backoff) and re-submits every unresolved window frame in
// order. Frames the server already executed are answered from its replay
// window without re-running the handler; frames it never saw execute
// normally — exactly-once either way. A response id that does not match the
// oldest in-flight request (stream desynchronisation) is treated the same
// as a network fault. An admission rejection (RetryAfterError) backs off
// for at least the server's hint before re-sending.
//
// Backoff: attempt k sleeps uniform[0, min(MaxBackoff, Backoff·2^(k−1))),
// the AWS architecture-blog scheme. The jitter decorrelates a herd of
// workers that all lost the same server or all got shed by the same
// overloaded one, so their retries spread out instead of stampeding back in
// lockstep.
//
// Terminal outcomes — ErrServerRestarted, ErrStaleSession, ErrBadSeq and
// exhausted retries — end the incarnation: the session drops its window
// and every later Submit, Await and Exchange returns the same error.
// Recovery is a fresh session, whose hello makes the server resync the
// worker; the resilient worker loop, the replica and the aggregator all
// rejoin that way.
//
// One PipelinedSession is one worker incarnation serving one goroutine.
type PipelinedSession struct {
	// Dial establishes a fresh mux link (normally DialMux, optionally
	// wrapped in Faulty).
	Dial func() (MuxLink, error)
	// Depth is the maximum number of in-flight exchanges (minimum 1).
	Depth int
	// MaxRetries bounds redial attempts per Await after the first. 0 means
	// no retries. NewPipelinedSession sets 3.
	MaxRetries int
	// Backoff is the base of the full-jitter schedule (0 sleeps nothing);
	// MaxBackoff caps its growth (0 means uncapped). NewPipelinedSession
	// sets 50 ms / 2 s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// SessionID identifies this incarnation. NewPipelinedSession draws a
	// random one; tests may set it explicitly (must be nonzero).
	SessionID uint64
	// Reader declares the read-session role (flagReader) on every frame:
	// this client is a diff subscriber (replica/evaluator), not a trainer.
	// Set before the first Submit.
	Reader bool

	// jitter draws the backoff fraction in [0,1); nil uses math/rand.
	jitter func() float64

	link  MuxLink
	seq   uint64
	epoch uint64
	// serverInc is the pinned server incarnation (0 = none yet); a response
	// carrying a different one ends the session with ErrServerRestarted.
	serverInc uint64
	// err is the terminal outcome, returned by every call once set.
	err     error
	slots   []pipeSlot
	head, n int
}

// NewPipelinedSession builds a pipelined session client with the default
// retry policy (3 retries, 50 ms full-jitter exponential backoff capped at
// 2 s) and a fresh random session id.
func NewPipelinedSession(dial func() (MuxLink, error), depth int) *PipelinedSession {
	if depth < 1 {
		depth = 1
	}
	return &PipelinedSession{
		Dial:       dial,
		Depth:      depth,
		MaxRetries: 3,
		Backoff:    50 * time.Millisecond,
		MaxBackoff: 2 * time.Second,
		SessionID:  randomSession(),
	}
}

func (p *PipelinedSession) init() {
	if p.slots == nil {
		p.slots = make([]pipeSlot, max(p.Depth, 1))
	}
}

func (p *PipelinedSession) slot(i int) *pipeSlot {
	return &p.slots[(p.head+i)%len(p.slots)]
}

// Epoch returns the worker epoch reported by the last decoded response.
func (p *PipelinedSession) Epoch() uint64 { return p.epoch }

// InFlight implements Pipeliner.
func (p *PipelinedSession) InFlight() int { return p.n }

// Submit implements Pipeliner: it encodes the session envelope into the
// next window slot and eagerly writes it to the link so the server starts
// working while the caller computes. Write failures are swallowed here and
// recovered by Await's redial-and-replay (the frame is safely parked in
// the window either way).
func (p *PipelinedSession) Submit(worker int, payload []byte) error {
	if p.err != nil {
		return p.err
	}
	p.init()
	if p.n == len(p.slots) {
		return errWindowFull
	}
	p.seq++
	flags := byte(0)
	if p.seq == 1 {
		// Only the incarnation's first frame says hello; replays re-send
		// the same bytes, so a lost hello is replayed as a hello.
		flags = flagHello
	}
	if p.Reader {
		flags |= flagReader
	}
	s := &p.slots[(p.head+p.n)%len(p.slots)]
	s.worker = worker
	s.seq = p.seq
	s.frame = appendSessionReq(s.frame[:0], flags, p.SessionID, p.seq, payload)
	s.wireID = 0
	s.submitted = false
	s.everSent = false
	s.sent = time.Now()
	p.n++
	p.pump() //nolint:errcheck // recovered in Await
	return nil
}

// pump dials a link if needed and submits every unsent window frame in
// order. Submitted frames always form a prefix of the window on the
// current link, so order on the wire matches sequence order.
func (p *PipelinedSession) pump() error {
	if p.link == nil {
		link, err := p.Dial()
		if err != nil {
			return err
		}
		tmet.dials.Inc()
		p.link = link
	}
	for i := 0; i < p.n; i++ {
		s := p.slot(i)
		if s.submitted {
			continue
		}
		id, err := p.link.Submit(s.worker, s.frame)
		if err != nil {
			p.dropLink()
			return err
		}
		if s.everSent {
			tmet.pipeReplayed.Inc()
		}
		s.wireID = id
		s.submitted = true
		s.everSent = true
	}
	return nil
}

// dropLink closes the current link and marks every window frame for
// re-submission on the next one.
func (p *PipelinedSession) dropLink() {
	if p.link != nil {
		p.link.Close()
		p.link = nil
	}
	for i := 0; i < p.n; i++ {
		p.slot(i).submitted = false
	}
}

// fail ends the incarnation with a terminal error (see the type comment).
func (p *PipelinedSession) fail(err error) error {
	p.err = err
	p.dropLink()
	p.n = 0
	return err
}

// sleepFor returns the full-jitter delay before retry attempt k (1-based):
// uniform in [0, min(MaxBackoff, Backoff·2^(k−1))), floored at floor (the
// server's retry-after hint, which jitter must stretch but never undercut).
func (p *PipelinedSession) sleepFor(attempt int, floor time.Duration) time.Duration {
	ceil := p.Backoff
	for i := 1; i < attempt && ceil > 0; i++ {
		ceil *= 2
		if p.MaxBackoff > 0 && ceil >= p.MaxBackoff {
			ceil = p.MaxBackoff
			break
		}
	}
	var d time.Duration
	if ceil > 0 {
		f := p.jitter
		if f == nil {
			f = rand.Float64
		}
		d = time.Duration(f() * float64(ceil))
	}
	return max(d, floor)
}

// Await implements Pipeliner: it resolves the oldest in-flight exchange,
// redialling and replaying the window on network faults.
func (p *PipelinedSession) Await() ([]byte, error) {
	resp, err := p.await()
	if err != nil {
		tmet.exchangeErrors.Inc()
	}
	return resp, err
}

func (p *PipelinedSession) await() ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.n == 0 {
		return nil, errWindowEmpty
	}
	var lastErr error
	var floor time.Duration // the latest retry-after hint, for the next wait
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > max(p.MaxRetries, 0) {
				return nil, p.fail(fmt.Errorf("transport: exchange failed after %d attempts: %w", attempt, lastErr))
			}
			tmet.retries.Inc()
			if d := p.sleepFor(attempt, floor); d > 0 {
				time.Sleep(d)
			}
			floor = 0
		}
		if err := p.pump(); err != nil {
			lastErr = err
			continue
		}
		s := &p.slots[p.head]
		id, resp, err := p.link.Recv(s.resp)
		s.resp = resp // keep the (possibly grown) buffer either way
		if err == nil {
			if id == s.wireID {
				return p.resolve(s, resp)
			}
			lastErr = fmt.Errorf("transport: response id %d does not match oldest in-flight request %d", id, s.wireID)
			p.dropLink()
			continue
		}
		// Declared here, off the success path: errors.As makes them escape.
		var ra *RetryAfterError
		var srvErr *ServerError
		switch {
		case errors.As(err, &ra):
			// Admission rejection of the oldest frame (server overloaded or
			// draining): never executed, link intact. Alone in the window it
			// is simply re-sent on the same link; frames behind it may have
			// executed or bounced, so a fuller window is replayed on a fresh
			// link and the replay cache deduplicates.
			lastErr, floor = err, ra.After
			if p.n == 1 {
				s.submitted = false
			} else {
				p.dropLink()
			}
		case errors.As(err, &srvErr):
			// Delivered and rejected at the framing layer: the link is
			// intact and a replay would fail identically.
			p.pop()
			return nil, err
		default:
			lastErr = err
			p.dropLink()
		}
	}
}

// resolve decodes the session envelope of the oldest slot's response and
// retires the slot.
func (p *PipelinedSession) resolve(s *pipeSlot, resp []byte) ([]byte, error) {
	p.pop()
	status, epoch, inc, body, err := decodeSessionResp(resp)
	if err != nil {
		return nil, err
	}
	p.epoch = epoch
	if p.serverInc == 0 {
		p.serverInc = inc
	} else if inc != p.serverInc {
		// Server restart: the whole window was addressed to a session the
		// new server never adopted.
		return nil, p.fail(fmt.Errorf("%w (worker %d)", ErrServerRestarted, s.worker))
	}
	switch status {
	case statusOK:
		rtt := time.Since(s.sent).Seconds()
		tmet.exchangeSeconds.Observe(rtt)
		tmet.pipeCommSeconds.Add(rtt)
		return body, nil
	case statusError:
		return nil, &ServerError{Msg: string(body)}
	case statusStaleSession:
		return nil, p.fail(fmt.Errorf("%w (worker %d now at epoch %d)", ErrStaleSession, s.worker, epoch))
	case statusBadSeq:
		return nil, p.fail(fmt.Errorf("%w (worker %d, epoch %d)", ErrBadSeq, s.worker, epoch))
	default:
		return nil, fmt.Errorf("transport: unknown session status 0x%02x", status)
	}
}

// pop retires the oldest window slot.
func (p *PipelinedSession) pop() {
	p.head = (p.head + 1) % len(p.slots)
	p.n--
}

// Exchange implements Transport: a synchronous submit+await, used for
// hellos, drains and the final model sync on a drained window.
func (p *PipelinedSession) Exchange(worker int, payload []byte) ([]byte, error) {
	if p.err == nil && p.n != 0 {
		return nil, errWindowFull
	}
	if err := p.Submit(worker, payload); err != nil {
		return nil, err
	}
	return p.Await()
}

// Close implements Transport.
func (p *PipelinedSession) Close() error {
	if p.link != nil {
		err := p.link.Close()
		p.link = nil
		return err
	}
	return nil
}

var (
	_ Pipeliner = (*PipelinedSession)(nil)
	_ Pipeliner = (*Loopback)(nil)
)
