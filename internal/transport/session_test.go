package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingHandler records every invocation so tests can prove a handler ran
// exactly once per logical exchange.
type countingHandler struct {
	mu    sync.Mutex
	calls []string
	fail  map[string]bool // payloads that should error
}

func (c *countingHandler) handle(worker int, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, string(payload))
	if c.fail[string(payload)] {
		return nil, errors.New("handler rejected " + string(payload))
	}
	return []byte(fmt.Sprintf("w%d:%s", worker, payload)), nil
}

func (c *countingHandler) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

// appending adapts a test Handler to the AppendHandler ExactlyOnce wraps:
// its response is copied after the reserved envelope prefix.
func appending(h Handler) AppendHandler {
	return func(dst []byte, worker int, payload []byte) ([]byte, error) {
		resp, err := h(worker, payload)
		return append(dst, resp...), err
	}
}

// encodeSessionReq encodes one request envelope into a fresh buffer.
func encodeSessionReq(flags byte, session, seq uint64, payload []byte) []byte {
	return appendSessionReq(nil, flags, session, seq, payload)
}

// sessionServer serves h behind the exactly-once middleware on a loopback
// TCP port for the duration of the test.
func sessionServer(t *testing.T, h Handler) (*ExactlyOnce, string) {
	t.Helper()
	eo := NewExactlyOnce(appending(h), nil)
	srv, err := ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return eo, srv.Addr()
}

// dialSession returns a session of the given depth against addr, closed
// when the test ends.
func dialSession(t *testing.T, addr string, depth int) *PipelinedSession {
	t.Helper()
	p := NewPipelinedSession(func() (MuxLink, error) { return DialMux(addr) }, depth)
	p.Backoff = time.Millisecond
	t.Cleanup(func() { p.Close() })
	return p
}

func TestSessionEnvelopeRoundTrip(t *testing.T) {
	req := encodeSessionReq(flagHello, 0xdeadbeef, 42, []byte("payload"))
	flags, sess, seq, body, err := decodeSessionReq(req)
	if err != nil {
		t.Fatal(err)
	}
	if flags != flagHello || sess != 0xdeadbeef || seq != 42 || !bytes.Equal(body, []byte("payload")) {
		t.Fatalf("decoded %x %x %d %q", flags, sess, seq, body)
	}
	resp := encodeSessionResp(statusOK, 7, 11, []byte("resp"))
	st, epoch, inc, rbody, err := decodeSessionResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if st != statusOK || epoch != 7 || inc != 11 || !bytes.Equal(rbody, []byte("resp")) {
		t.Fatalf("decoded %x %d %d %q", st, epoch, inc, rbody)
	}
	for _, b := range [][]byte{nil, []byte("short"), []byte("a long payload without any envelope")} {
		if _, _, _, _, err := decodeSessionReq(b); err == nil {
			t.Fatalf("%q decoded as a session frame", b)
		}
	}
}

// The exactly-once guarantee: re-delivering the same (session, seq) frame
// must answer from the replay cache without re-invoking the handler.
func TestExactlyOnceReplaysDuplicateFrame(t *testing.T) {
	h := &countingHandler{}
	eo := NewExactlyOnce(appending(h.handle), nil)

	frame := encodeSessionReq(flagHello, 99, 1, []byte("push-a"))
	first, err := eo.Handle(3, frame)
	if err != nil {
		t.Fatal(err)
	}
	// Same frame again (torn response retry / duplicated delivery).
	second, err := eo.Handle(3, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("replayed response differs from the original")
	}
	if h.count() != 1 {
		t.Fatalf("handler ran %d times for one logical exchange", h.count())
	}
	st := eo.Stats()
	if st.Exchanges != 1 || st.Replays != 1 {
		t.Fatalf("stats %+v, want 1 exchange + 1 replay", st)
	}
	// The next sequence number executes normally.
	next := encodeSessionReq(0, 99, 2, []byte("push-b"))
	if _, err := eo.Handle(3, next); err != nil {
		t.Fatal(err)
	}
	if h.count() != 2 {
		t.Fatalf("handler ran %d times for two logical exchanges", h.count())
	}
}

func TestExactlyOnceHelloTriggersJoinOnce(t *testing.T) {
	h := &countingHandler{}
	var joins atomic.Int64
	eo := NewExactlyOnce(appending(h.handle), func(worker int) error {
		joins.Add(1)
		return nil
	})
	frame := encodeSessionReq(flagHello, 5, 1, []byte("x"))
	if _, err := eo.Handle(0, frame); err != nil {
		t.Fatal(err)
	}
	// Retried hello replays; it must not resync a second time.
	if _, err := eo.Handle(0, frame); err != nil {
		t.Fatal(err)
	}
	if joins.Load() != 1 {
		t.Fatalf("join ran %d times", joins.Load())
	}
	// A new incarnation joins again and starts its own sequence space.
	frame2 := encodeSessionReq(flagHello, 6, 1, []byte("y"))
	resp, err := eo.Handle(0, frame2)
	if err != nil {
		t.Fatal(err)
	}
	if joins.Load() != 2 {
		t.Fatalf("rejoin did not trigger the hook (%d joins)", joins.Load())
	}
	_, epoch, _, _, err := decodeSessionResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch %d after two incarnations, want 2", epoch)
	}
}

func TestExactlyOnceFencesStaleIncarnation(t *testing.T) {
	h := &countingHandler{}
	eo := NewExactlyOnce(appending(h.handle), nil)
	// Incarnation A joins and pushes.
	if _, err := eo.Handle(1, encodeSessionReq(flagHello, 10, 1, []byte("a1"))); err != nil {
		t.Fatal(err)
	}
	// Incarnation B takes over.
	if _, err := eo.Handle(1, encodeSessionReq(flagHello, 11, 1, []byte("b1"))); err != nil {
		t.Fatal(err)
	}
	calls := h.count()
	// A's in-flight push arrives late: it must be rejected without running.
	resp, err := eo.Handle(1, encodeSessionReq(0, 10, 2, []byte("a2")))
	if err != nil {
		t.Fatal(err)
	}
	st, _, _, _, err := decodeSessionResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if st != statusStaleSession {
		t.Fatalf("status 0x%02x, want stale session", st)
	}
	if h.count() != calls {
		t.Fatal("stale frame reached the handler")
	}
	if eo.Stats().StaleRejected != 1 {
		t.Fatalf("stats %+v", eo.Stats())
	}
}

func TestExactlyOnceRejectsSequenceGap(t *testing.T) {
	h := &countingHandler{}
	eo := NewExactlyOnce(appending(h.handle), nil)
	if _, err := eo.Handle(0, encodeSessionReq(flagHello, 20, 1, []byte("a"))); err != nil {
		t.Fatal(err)
	}
	resp, err := eo.Handle(0, encodeSessionReq(0, 20, 5, []byte("jump")))
	if err != nil {
		t.Fatal(err)
	}
	st, _, _, _, _ := decodeSessionResp(resp)
	if st != statusBadSeq {
		t.Fatalf("status 0x%02x, want bad seq", st)
	}
	if h.count() != 1 {
		t.Fatal("gapped frame must not run")
	}
}

func TestExactlyOnceCachesHandlerErrors(t *testing.T) {
	h := &countingHandler{fail: map[string]bool{"bad": true}}
	eo := NewExactlyOnce(appending(h.handle), nil)
	if _, err := eo.Handle(0, encodeSessionReq(flagHello, 30, 1, []byte("ok"))); err != nil {
		t.Fatal(err)
	}
	frame := encodeSessionReq(0, 30, 2, []byte("bad"))
	r1, err := eo.Handle(0, frame)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eo.Handle(0, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("replayed error frame differs")
	}
	st, _, _, body, _ := decodeSessionResp(r1)
	if st != statusError || len(body) == 0 {
		t.Fatalf("status 0x%02x body %q, want cached error frame", st, body)
	}
	if h.count() != 2 {
		t.Fatalf("handler ran %d times; the failed exchange must not re-run", h.count())
	}
}

// A frame without the envelope cannot be deduplicated: the middleware
// answers it with an error (an error frame on the wire) and the handler
// never runs.
func TestExactlyOnceRefusesSessionlessFrames(t *testing.T) {
	h := &countingHandler{}
	eo := NewExactlyOnce(appending(h.handle), nil)
	for _, payload := range [][]byte{[]byte("legacy"), nil} {
		if resp, err := eo.Handle(2, payload); err == nil {
			t.Fatalf("sessionless %q answered %q, want an error", payload, resp)
		}
	}
	if h.count() != 0 {
		t.Fatalf("handler ran %d times on sessionless frames", h.count())
	}
	if st := eo.Stats(); st != (SessionStats{}) {
		t.Fatalf("sessionless frames touched the session state: %+v", st)
	}
}

func TestPipelinedSessionSurfacesStatuses(t *testing.T) {
	h := &countingHandler{fail: map[string]bool{"bad": true}}
	_, addr := sessionServer(t, h.handle)
	sc := dialSession(t, addr, 1)
	resp, err := sc.Exchange(0, []byte("fine"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "w0:fine" {
		t.Fatalf("resp %q", resp)
	}
	if sc.Epoch() != 1 {
		t.Fatalf("epoch %d after hello, want 1", sc.Epoch())
	}
	var srvErr *ServerError
	if _, err := sc.Exchange(0, []byte("bad")); !errors.As(err, &srvErr) {
		t.Fatalf("err %v, want ServerError", err)
	}
	// A handler error is the exchange's answer, not the session's end.
	if resp, err := sc.Exchange(0, []byte("again")); err != nil || string(resp) != "w0:again" {
		t.Fatalf("exchange after a handler error = %q, %v", resp, err)
	}
	// A second incarnation fences the first out.
	sc2 := dialSession(t, addr, 1)
	if _, err := sc2.Exchange(0, []byte("takeover")); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Exchange(0, []byte("late")); !errors.Is(err, ErrStaleSession) {
		t.Fatalf("err %v, want ErrStaleSession", err)
	}
}

// The full stack over real sockets: PipelinedSession at depth 2 over Faulty
// mux links against a TCPServer, with every fault class enabled. Each
// logical exchange must reach the handler exactly once, in order.
func TestSessionOverFaultyTCPDeliversExactlyOnce(t *testing.T) {
	h := &countingHandler{}
	_, addr := sessionServer(t, h.handle)
	var dials uint64
	sc := NewPipelinedSession(func() (MuxLink, error) {
		c, err := DialMux(addr)
		if err != nil {
			return nil, err
		}
		dials++
		return NewFaulty(c, FaultConfig{
			Seed:           dials,
			DropBeforeSend: 0.1,
			DropAfterSend:  0.1,
			Duplicate:      0.1,
			Reset:          0.05,
			Delay:          0.1,
			MaxDelay:       200 * time.Microsecond,
		}), nil
	}, 2)
	sc.MaxRetries = 50
	sc.Backoff = 200 * time.Microsecond
	defer sc.Close()

	const rounds = 60
	next := 0
	for recvd := 0; recvd < rounds; {
		if next < rounds && sc.InFlight() < 2 {
			if err := sc.Submit(1, []byte(fmt.Sprintf("m%03d", next))); err != nil {
				t.Fatalf("submit %d: %v", next, err)
			}
			next++
			continue
		}
		resp, err := sc.Await()
		if err != nil {
			t.Fatalf("round %d: %v", recvd, err)
		}
		if want := fmt.Sprintf("w1:m%03d", recvd); string(resp) != want {
			t.Fatalf("round %d: resp %q, want %q", recvd, resp, want)
		}
		recvd++
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.calls) != rounds {
		t.Fatalf("handler ran %d times for %d logical exchanges", len(h.calls), rounds)
	}
	for i, call := range h.calls {
		if want := fmt.Sprintf("m%03d", i); call != want {
			t.Fatalf("call %d was %q, want %q — ordering broken", i, call, want)
		}
	}
}

// TestExactlyOnceReplayImmutable: a replay is byte-identical to the first
// answer after Window−1 later exchanges of the same worker, while other
// workers exchange concurrently. Every response is the buffer the handler
// appended into — the one the TCP server writes and the replay cache keeps
// — so nothing may write into it again: not the handler (which must not
// reuse it), and not the middleware, including for header-only responses,
// where the handler appended nothing to the shared envelope reservation.
// Each worker runs three incarnations, so workers' envelopes differ in
// epoch as well as payload.
func TestExactlyOnceReplayImmutable(t *testing.T) {
	eo := NewExactlyOnce(func(dst []byte, worker int, payload []byte) ([]byte, error) {
		return append(dst, payload...), nil
	}, nil)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round <= w%3; round++ {
				session := uint64(100*w + round + 1)
				frame := func(seq uint64) []byte {
					flags := byte(0)
					if seq == 1 {
						flags = flagHello
					}
					var payload []byte
					if seq%3 != 0 { // every third answer is header-only
						payload = []byte(fmt.Sprintf("worker %d round %d seq %d", w, round, seq))
					}
					return encodeSessionReq(flags, session, seq, payload)
				}
				want := make([][]byte, DefaultReplayWindow+1)
				for seq := uint64(1); seq <= DefaultReplayWindow; seq++ {
					resp, err := eo.Handle(w, frame(seq))
					if err != nil {
						t.Error(err)
						return
					}
					want[seq] = bytes.Clone(resp)
				}
				for seq := uint64(1); seq <= DefaultReplayWindow; seq++ {
					got, err := eo.Handle(w, frame(seq))
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, want[seq]) {
						t.Errorf("worker %d round %d: replay of seq %d\n got % x\nwant % x", w, round, seq, got, want[seq])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := eo.Stats(); st.Replays != st.Exchanges {
		t.Fatalf("stats %+v: every executed exchange was replayed once", st)
	}
}

// TestSessionReplayBytes: SessionStats.ReplayBytes and the
// dgs_session_replay_bytes gauge track the capacity the replay cache
// retains — up on store, down on eviction, hello and Reset.
func TestSessionReplayBytes(t *testing.T) {
	eo := NewExactlyOnce(func(dst []byte, worker int, payload []byte) ([]byte, error) {
		return append(dst, payload...), nil
	}, nil)
	eo.Window = 2
	gauge0 := tmet.sessReplayBytes.Value()
	check := func(when string, want int) {
		t.Helper()
		if got := eo.Stats().ReplayBytes; got != uint64(want) {
			t.Fatalf("%s: ReplayBytes %d, want %d", when, got, want)
		}
		if got := tmet.sessReplayBytes.Value() - gauge0; got != float64(want) {
			t.Fatalf("%s: gauge moved by %v, want %d", when, got, want)
		}
	}
	handle := func(worker int, flags byte, session, seq uint64, n int) int {
		t.Helper()
		resp, err := eo.Handle(worker, encodeSessionReq(flags, session, seq, make([]byte, n)))
		if err != nil {
			t.Fatal(err)
		}
		return cap(resp)
	}
	a1 := handle(0, flagHello, 1, 1, 100)
	a2 := handle(0, 0, 1, 2, 1000)
	b1 := handle(1, flagHello, 2, 1, 10)
	check("after three exchanges", a1+a2+b1)
	handle(0, 0, 1, 1, 100) // a replay retains nothing new
	check("after a replay", a1+a2+b1)
	a3 := handle(0, 0, 1, 3, 5000) // evicts seq 1 from the two-slot ring
	check("after an eviction", a2+a3+b1)
	c1 := handle(0, flagHello, 3, 1, 50) // a new incarnation drops the old window
	check("after a hello", c1+b1)
	eo.Reset()
	check("after Reset", 0)
}

// Epoch returns the worker epoch reported by the last decoded response.
func (p *PipelinedSession) Epoch() uint64 { return p.epoch }
