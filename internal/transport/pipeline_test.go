package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestPipelinedSessionWindowMisuse(t *testing.T) {
	eo := NewExactlyOnce(appending(plainEcho), nil)
	p := NewPipelinedSession(func() (MuxLink, error) { return &memLink{h: eo.Handle}, nil }, 2)

	if _, err := p.Await(); !errors.Is(err, errWindowEmpty) {
		t.Fatalf("await on empty window: %v", err)
	}
	if err := p.Submit(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(0, []byte("c")); !errors.Is(err, errWindowFull) {
		t.Fatalf("submit beyond depth: %v", err)
	}
	// Exchange is only legal on a drained window (the trainer drains before
	// its final model sync).
	if _, err := p.Exchange(0, []byte("x")); !errors.Is(err, errWindowFull) {
		t.Fatalf("exchange with in-flight work: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Await(); err != nil {
			t.Fatal(err)
		}
	}
	if resp, err := p.Exchange(0, []byte("x")); err != nil || string(resp) != "x" {
		t.Fatalf("drained exchange = %q, %v", resp, err)
	}
}

// A terminal outcome ends the incarnation for good. At depth 2, a server
// restart with two frames in flight must surface as ErrServerRestarted on
// both Awaits (the second frame bounced off the same restarted server) and
// on every later call — never as a supersession, which callers treat as
// fatal — and nothing more may reach the handler.
func TestPipelinedSessionTerminalErrorsAreSticky(t *testing.T) {
	h := &countingHandler{}
	eo, addr := sessionServer(t, h.handle)
	p := dialSession(t, addr, 2)
	if _, err := p.Exchange(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	eo.Reset() // the server's session table is gone; a new incarnation answers

	for _, m := range []string{"b", "c"} {
		if err := p.Submit(0, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Await(); !errors.Is(err, ErrServerRestarted) {
			t.Fatalf("await %d after the restart: %v, want ErrServerRestarted", i, err)
		}
	}
	if err := p.Submit(0, []byte("d")); !errors.Is(err, ErrServerRestarted) {
		t.Fatalf("submit on a restarted session: %v", err)
	}
	if _, err := p.Exchange(0, []byte("e")); !errors.Is(err, ErrServerRestarted) {
		t.Fatalf("exchange on a restarted session: %v", err)
	}
	if p.InFlight() != 0 {
		t.Fatalf("%d frames still in flight on a dead session", p.InFlight())
	}
	if h.count() != 1 {
		t.Fatalf("handler ran %d times; only the pre-restart frame may execute", h.count())
	}
	// Callers rejoin with a fresh session.
	if resp, err := dialSession(t, addr, 2).Exchange(0, []byte("f")); err != nil || string(resp) != "w0:f" {
		t.Fatalf("fresh session after the restart = %q, %v", resp, err)
	}
}

// closedDial returns a dialer whose first failures links are already dead,
// followed by working links to h.
func closedDial(h Handler, failures int, dials *int) func() (MuxLink, error) {
	return func() (MuxLink, error) {
		*dials++
		return &memLink{h: h, closed: *dials <= failures}, nil
	}
}

func TestPipelinedSessionRedialsThroughFailures(t *testing.T) {
	eo := NewExactlyOnce(appending(echoHandler), nil)
	dials := 0
	p := NewPipelinedSession(closedDial(eo.Handle, 2, &dials), 1)
	p.Backoff = time.Millisecond
	resp, err := p.Exchange(3, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "\x03x" {
		t.Fatalf("resp %q", resp)
	}
	if dials != 3 {
		t.Fatalf("dialed %d times, want 3 (two dead links then a live one)", dials)
	}
}

func TestPipelinedSessionGivesUpAfterBudget(t *testing.T) {
	eo := NewExactlyOnce(appending(echoHandler), nil)
	dials := 0
	p := NewPipelinedSession(closedDial(eo.Handle, 1000, &dials), 1)
	p.Backoff = time.Microsecond
	p.MaxRetries = 2
	_, err := p.Exchange(0, nil)
	if err == nil {
		t.Fatal("must give up after the retry budget")
	}
	if _, again := p.Exchange(0, nil); again != err {
		t.Fatalf("exhausted session answered %v, want the same terminal error %v", again, err)
	}
}

func TestPipelinedSessionDialFailures(t *testing.T) {
	eo := NewExactlyOnce(appending(echoHandler), nil)
	attempts := 0
	p := NewPipelinedSession(func() (MuxLink, error) {
		attempts++
		if attempts < 3 {
			return nil, errors.New("refused")
		}
		return &memLink{h: eo.Handle}, nil
	}, 1)
	p.Backoff = time.Microsecond
	resp, err := p.Exchange(1, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "\x01y" {
		t.Fatalf("resp %q", resp)
	}
}

// A listener that goes away and comes back on the same address, serving
// the same session table (the process survived, only its sockets died):
// the session redials, replays, and carries on without a rejoin.
func TestPipelinedSessionSurvivesListenerRestart(t *testing.T) {
	eo := NewExactlyOnce(appending(echoHandler), nil)
	srv, err := ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	p := dialSession(t, addr, 1)
	p.Backoff = 10 * time.Millisecond
	p.MaxRetries = 10

	if _, err := p.Exchange(0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := ListenTCP(addr, eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	resp, err := p.Exchange(0, []byte("after"))
	if err != nil {
		t.Fatalf("exchange after the listener restart: %v", err)
	}
	if string(resp[1:]) != "after" {
		t.Fatalf("resp %q", resp)
	}
	if st := eo.Stats(); st.Hellos != 1 {
		t.Fatalf("%d hellos; the session must carry on, not rejoin", st.Hellos)
	}
}

// dropOnRecv breaks the underlying connection on its nth Recv, simulating a
// network fault with responses (and possibly requests) in flight.
type dropOnRecv struct {
	MuxLink
	recvs  int
	dropAt int
}

func (d *dropOnRecv) Recv(buf []byte) (uint64, []byte, error) {
	d.recvs++
	if d.recvs == d.dropAt {
		d.MuxLink.Close()
	}
	return d.MuxLink.Recv(buf)
}

// lyingID corrupts the echoed request id of its first response, simulating
// a desynchronised stream. The session must treat it as a fault (redial and
// replay), not pair the response with the wrong request.
type lyingID struct {
	MuxLink
	lied bool
}

func (l *lyingID) Recv(buf []byte) (uint64, []byte, error) {
	id, resp, err := l.MuxLink.Recv(buf)
	if err == nil && !l.lied {
		l.lied = true
		id++
	}
	return id, resp, err
}

// The pipelined client's reconnect-and-replay against the server's replay
// window: a mid-stream connection loss with three exchanges in flight must
// not re-run any handler and must resolve every exchange with the right
// response.
func TestPipelinedSessionExactlyOnceAcrossLinkDrop(t *testing.T) {
	h := &countingHandler{}
	eo := NewExactlyOnce(appending(h.handle), nil)
	srv, err := ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dials := 0
	ps := NewPipelinedSession(func() (MuxLink, error) {
		m, err := DialMux(srv.Addr())
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			// First link dies on its second receive, with the window full.
			return &dropOnRecv{MuxLink: m, dropAt: 2}, nil
		}
		return m, nil
	}, 3)
	defer ps.Close()

	const rounds = 12
	next := 0
	recvd := 0
	awaitOne := func() {
		resp, err := ps.Await()
		if err != nil {
			t.Fatalf("await %d: %v", recvd, err)
		}
		if want := fmt.Sprintf("w1:m%02d", recvd); string(resp) != want {
			t.Fatalf("await %d = %q, want %q", recvd, resp, want)
		}
		recvd++
	}
	for next < rounds {
		if ps.InFlight() == 3 {
			awaitOne()
		}
		if err := ps.Submit(1, []byte(fmt.Sprintf("m%02d", next))); err != nil {
			t.Fatalf("submit %d: %v", next, err)
		}
		next++
	}
	for ps.InFlight() > 0 {
		awaitOne()
	}

	if dials < 2 {
		t.Fatalf("dialed %d times; the dropped link was never replaced", dials)
	}
	if eo.Stats().Replays == 0 {
		t.Fatal("no server-side replays recorded; the window replay path never ran")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.calls) != rounds {
		t.Fatalf("handler ran %d times for %d logical exchanges", len(h.calls), rounds)
	}
	for i, call := range h.calls {
		if want := fmt.Sprintf("m%02d", i); call != want {
			t.Fatalf("call %d was %q, want %q — ordering broken", i, call, want)
		}
	}
}

// A response whose echoed id does not match the oldest in-flight request is
// stream desynchronisation: the session must drop the link and recover by
// replay rather than deliver a mispaired response.
func TestPipelinedSessionDetectsIDMismatch(t *testing.T) {
	h := &countingHandler{}
	eo := NewExactlyOnce(appending(h.handle), nil)
	srv, err := ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dials := 0
	ps := NewPipelinedSession(func() (MuxLink, error) {
		m, err := DialMux(srv.Addr())
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			return &lyingID{MuxLink: m}, nil
		}
		return m, nil
	}, 2)
	defer ps.Close()

	if err := ps.Submit(0, []byte("grad")); err != nil {
		t.Fatal(err)
	}
	resp, err := ps.Await()
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "w0:grad" {
		t.Fatalf("resp %q", resp)
	}
	if dials != 2 {
		t.Fatalf("dialed %d times, want 2 (mismatch must drop the link)", dials)
	}
	if h.count() != 1 {
		t.Fatalf("handler ran %d times for one logical exchange", h.count())
	}
}

// Stale-session rejections are terminal: a fenced incarnation must surface
// ErrStaleSession instead of replaying forever.
func TestPipelinedSessionStaleSessionIsTerminal(t *testing.T) {
	h := &countingHandler{}
	eo := NewExactlyOnce(appending(h.handle), nil)
	srv, err := ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dial := func() (MuxLink, error) { return DialMux(srv.Addr()) }
	a := NewPipelinedSession(dial, 2)
	defer a.Close()
	if _, err := a.Exchange(3, []byte("a1")); err != nil {
		t.Fatal(err)
	}
	b := NewPipelinedSession(dial, 2)
	defer b.Close()
	if _, err := b.Exchange(3, []byte("b1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Exchange(3, []byte("a2")); !errors.Is(err, ErrStaleSession) {
			t.Fatalf("fenced exchange %d: %v, want ErrStaleSession", i, err)
		}
	}
	if h.count() != 2 {
		t.Fatalf("handler ran %d times; the stale frame must not execute", h.count())
	}
	if st := eo.Stats(); st.StaleRejected != 1 {
		t.Fatalf("stats %+v: a fenced session must stop sending after its first rejection", st)
	}
}

// The replay window is finite: a duplicate older than Window entries cannot
// be answered from cache and must be rejected as a bad sequence rather than
// silently re-executed.
func TestExactlyOnceEvictsBeyondReplayWindow(t *testing.T) {
	h := &countingHandler{}
	eo := NewExactlyOnce(appending(h.handle), nil)
	eo.Window = 4

	frames := make([][]byte, 0, 6)
	for seq := uint64(1); seq <= 6; seq++ {
		flags := byte(0)
		if seq == 1 {
			flags = flagHello
		}
		frame := encodeSessionReq(flags, 500, seq, []byte(fmt.Sprintf("s%d", seq)))
		frames = append(frames, frame)
		if _, err := eo.Handle(0, frame); err != nil {
			t.Fatal(err)
		}
	}
	calls := h.count()

	// seq 6 is still cached (newest entry).
	resp, err := eo.Handle(0, frames[5])
	if err != nil {
		t.Fatal(err)
	}
	if st, _, _, _, _ := decodeSessionResp(resp); st != statusOK {
		t.Fatalf("in-window replay status 0x%02x", st)
	}
	// seq 2's slot was overwritten by seq 6 (ring of 4): evicted.
	resp, err = eo.Handle(0, frames[1])
	if err != nil {
		t.Fatal(err)
	}
	if st, _, _, _, _ := decodeSessionResp(resp); st != statusBadSeq {
		t.Fatalf("evicted replay status 0x%02x, want bad seq", st)
	}
	if h.count() != calls {
		t.Fatal("replay attempts must not reach the handler")
	}
}
