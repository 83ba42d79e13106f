package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A handler failure must come back as an explicit error frame on a live
// connection — not as a dropped connection that masquerades as a network
// fault.
func TestTCPServerReturnsErrorFrameOnHandlerFailure(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		if string(payload) == "poison" {
			return nil, errors.New("cannot digest poison")
		}
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = exchange(cli, 0, []byte("poison"))
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("err %v, want ServerError", err)
	}
	if !strings.Contains(srvErr.Msg, "poison") {
		t.Fatalf("error frame lost the message: %q", srvErr.Msg)
	}
	// The connection survived the error frame.
	resp, err := exchange(cli, 0, []byte("fine"))
	if err != nil {
		t.Fatalf("connection did not survive an error frame: %v", err)
	}
	if string(resp) != "fine" {
		t.Fatalf("resp %q", resp)
	}
}

// A panic provoked by one client's frame (e.g. mismatched model geometry
// scattering out of range) must not take down the server: it comes back as
// an error frame and every other connection keeps working.
func TestTCPServerSurvivesHandlerPanic(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		if string(payload) == "boom" {
			panic("index out of range [528] with length 320")
		}
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	bad, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	_, err = exchange(bad, 0, []byte("boom"))
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("err %v, want ServerError", err)
	}
	if !strings.Contains(srvErr.Msg, "panic") {
		t.Fatalf("error frame should name the panic: %q", srvErr.Msg)
	}
	// The panicking client's own connection survives...
	if _, err := exchange(bad, 0, []byte("ok")); err != nil {
		t.Fatalf("connection did not survive the panic: %v", err)
	}
	// ...and so does everyone else's.
	other, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := exchange(other, 1, []byte("alive")); err != nil {
		t.Fatalf("server died serving an unrelated connection: %v", err)
	}
}

// The session must not retry a ServerError: the request was delivered and
// rejected, so a retry would deterministically fail (and, without the
// replay cache, could double-apply side effects). The rejection is not
// terminal either: the next exchange goes out on the same link.
func TestPipelinedSessionDoesNotRetryServerErrors(t *testing.T) {
	// Atomic: a response arriving over the socket orders nothing for the
	// race detector.
	var calls atomic.Int32
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		calls.Add(1)
		return nil, errors.New("always rejected")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dials := 0
	p := NewPipelinedSession(func() (MuxLink, error) { dials++; return DialMux(srv.Addr()) }, 1)
	p.MaxRetries = 5
	p.Backoff = time.Millisecond
	defer p.Close()

	for i := int32(1); i <= 2; i++ {
		_, err = p.Exchange(0, []byte("x"))
		var srvErr *ServerError
		if !errors.As(err, &srvErr) {
			t.Fatalf("err %v, want ServerError", err)
		}
		if n := calls.Load(); n != i {
			t.Fatalf("handler called %d times for %d exchanges; application errors must not be retried", n, i)
		}
	}
	if dials != 1 {
		t.Fatalf("dialed %d times; an error frame leaves the link intact", dials)
	}
}

// Explicit zeros disable retry and backoff; the constructor installs the
// defaults.
func TestPipelinedSessionExplicitZeroDisablesRetries(t *testing.T) {
	dials := 0
	p := &PipelinedSession{Dial: func() (MuxLink, error) {
		dials++
		return nil, errors.New("refused")
	}, SessionID: 1}
	start := time.Now()
	if _, err := p.Exchange(0, nil); err == nil {
		t.Fatal("must fail with no retries")
	}
	// Submit dials eagerly and Await tries once more: no retry in between.
	if dials != 2 {
		t.Fatalf("dialed %d times with MaxRetries=0, want 2 (submit, then the one await attempt)", dials)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("Backoff=0 slept %v", elapsed)
	}
	if def := NewPipelinedSession(nil, 0); def.MaxRetries != 3 || def.Backoff != 50*time.Millisecond || def.MaxBackoff != 2*time.Second || def.Depth != 1 {
		t.Fatalf("constructor defaults changed: %+v", def)
	}
}

func TestMuxConnBrokenConnFailsFast(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := exchange(cli, 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Kill the server so the next exchange fails mid-frame.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := exchange(cli, 0, []byte("fails")); err == nil {
		t.Fatal("exchange against a dead server must fail")
	}
	// From now on the client must refuse to touch the stream.
	if _, err := exchange(cli, 0, []byte("later")); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("err %v, want ErrBrokenConn", err)
	}
}

// A stalled server (handler never returns) must not hang a client that set a
// per-exchange deadline.
func TestMuxConnExchangeTimeout(t *testing.T) {
	block := make(chan struct{})
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		<-block
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)

	cli, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.ExchangeTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err = exchange(cli, 0, []byte("x"))
	if err == nil {
		t.Fatal("exchange against a stalled handler must time out")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed out only after %v", elapsed)
	}
	// Deadline expiry breaks the stream.
	if _, err := exchange(cli, 0, []byte("y")); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("err %v, want ErrBrokenConn", err)
	}
}

// A client that sends a frame header and then stalls must not pin a server
// connection forever when the server set a per-exchange deadline.
func TestTCPServerExchangeTimeout(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetExchangeTimeout(50 * time.Millisecond)
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Header promising a 100-byte payload that never arrives.
	hdr := binary.LittleEndian.AppendUint32(nil, 100)
	hdr = binary.LittleEndian.AppendUint32(hdr, muxWorkerFlag)
	hdr = binary.LittleEndian.AppendUint64(hdr, 1)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	// The server must hang up rather than wait forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server should have closed the stalled connection")
	}
	// A healthy client is still served.
	cli, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := exchange(cli, 1, []byte("alive")); err != nil {
		t.Fatal(err)
	}
}
