package transport

import (
	"errors"
	"testing"
	"time"
)

// Server-restart detection (session protocol v2): a server that lost its
// session table answers with a fresh incarnation id; clients must surface
// the recoverable ErrServerRestarted — not the fatal ErrStaleSession — and
// rejoin with a hello on the next exchange.

func okHandler(worker int, payload []byte) ([]byte, error) {
	return append([]byte{byte(worker)}, payload...), nil
}

// The incarnation check must not false-positive during a normal session.
func TestPipelinedSessionStableIncarnation(t *testing.T) {
	_, addr := sessionServer(t, okHandler)
	c := dialSession(t, addr, 1)
	for i := 0; i < 10; i++ {
		if _, err := c.Exchange(2, []byte{byte(i)}); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
}

// TestPipelinedSessionDetectsServerRestart: the TCP server is killed
// mid-window and replaced on the same address by a fresh process (new
// ExactlyOnce). The pipelined client's replay must
// come back as ErrServerRestarted, and a fresh incarnation must be able to
// join the new server.
func TestPipelinedSessionDetectsServerRestart(t *testing.T) {
	eo1 := NewExactlyOnce(appending(okHandler), nil)
	srv, err := ListenTCP("127.0.0.1:0", eo1.Handle)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	p := NewPipelinedSession(func() (MuxLink, error) { return DialMux(addr) }, 2)
	p.Backoff = time.Millisecond
	p.MaxRetries = 20
	defer p.Close()

	if err := p.Submit(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Await(); err != nil {
		t.Fatal(err)
	}

	// Kill the server and bring up a replacement on the same address.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	eo2 := NewExactlyOnce(appending(okHandler), nil)
	srv2, err := ListenTCP(addr, eo2.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	if err := p.Submit(0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	_, aerr := p.Await()
	if !errors.Is(aerr, ErrServerRestarted) {
		t.Fatalf("await after server restart: got %v, want ErrServerRestarted", aerr)
	}

	// The resilient worker loop reacts by rejoining as a fresh incarnation.
	p2 := NewPipelinedSession(func() (MuxLink, error) { return DialMux(addr) }, 2)
	p2.Backoff = time.Millisecond
	defer p2.Close()
	if err := p2.Submit(0, []byte("c")); err != nil {
		t.Fatal(err)
	}
	resp, err := p2.Await()
	if err != nil {
		t.Fatalf("fresh incarnation against new server: %v", err)
	}
	if string(resp) != "\x00c" {
		t.Fatalf("resp %q", resp)
	}
	if st := eo2.Stats(); st.Hellos != 1 {
		t.Fatalf("new server adopted %d hellos, want 1", st.Hellos)
	}
}
