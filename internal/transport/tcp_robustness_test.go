package transport

import (
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
	cli, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.Exchange(0, []byte("poison"))
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("err %v, want ServerError", err)
	}
	if !strings.Contains(srvErr.Msg, "poison") {
		t.Fatalf("error frame lost the message: %q", srvErr.Msg)
	}
	// The connection survived the error frame.
	resp, err := cli.Exchange(0, []byte("fine"))
	if err != nil {
		t.Fatalf("connection did not survive an error frame: %v", err)
	}
	if string(resp) != "fine" {
		t.Fatalf("resp %q", resp)
	}
	// Failed exchanges are not counted as traffic. (The failed one came
	// first on this connection, so once the good one is counted both are
	// accounted for.)
	waitServerExchanges(t, srv, 1)
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

	bad, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	_, err = bad.Exchange(0, []byte("boom"))
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("err %v, want ServerError", err)
	}
	if !strings.Contains(srvErr.Msg, "panic") {
		t.Fatalf("error frame should name the panic: %q", srvErr.Msg)
	}
	// The panicking client's own connection survives...
	if _, err := bad.Exchange(0, []byte("ok")); err != nil {
		t.Fatalf("connection did not survive the panic: %v", err)
	}
	// ...and so does everyone else's.
	other, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.Exchange(1, []byte("alive")); err != nil {
		t.Fatalf("server died serving an unrelated connection: %v", err)
	}
}

// Reconnecting must not retry a ServerError: the request was delivered and
// rejected, so a retry would deterministically fail (and, before the session
// layer, could double-apply side effects).
func TestReconnectingDoesNotRetryServerErrors(t *testing.T) {
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
	rc := NewReconnecting(func() (Transport, error) { return DialTCP(srv.Addr()) })
	rc.MaxRetries = 5
	rc.Backoff = time.Millisecond
	defer rc.Close()

	_, err = rc.Exchange(0, []byte("x"))
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("err %v, want ServerError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler called %d times; application errors must not be retried", n)
	}
}

// Explicit zeros disable retry and backoff; the constructor installs the
// defaults.
func TestReconnectingExplicitZeroDisablesRetries(t *testing.T) {
	dials := 0
	r := &Reconnecting{Dial: func() (Transport, error) {
		dials++
		return nil, errors.New("refused")
	}}
	start := time.Now()
	if _, err := r.Exchange(0, nil); err == nil {
		t.Fatal("must fail with no retries")
	}
	if dials != 1 {
		t.Fatalf("dialed %d times with MaxRetries=0, want exactly 1", dials)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("Backoff=0 slept %v", elapsed)
	}
	if def := NewReconnecting(nil); def.MaxRetries != 3 || def.Backoff != 50*time.Millisecond || def.MaxBackoff != 2*time.Second {
		t.Fatalf("constructor defaults changed: %+v", def)
	}
}

func TestTCPClientBrokenConnFailsFast(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Exchange(0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Kill the server so the next exchange fails mid-frame.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Exchange(0, []byte("fails")); err == nil {
		t.Fatal("exchange against a dead server must fail")
	}
	// From now on the client must refuse to touch the stream.
	if _, err := cli.Exchange(0, []byte("later")); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("err %v, want ErrBrokenConn", err)
	}
}

// A stalled server (handler never returns) must not hang a client that set a
// per-exchange deadline.
func TestTCPClientExchangeTimeout(t *testing.T) {
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

	cli, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.ExchangeTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err = cli.Exchange(0, []byte("x"))
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
	if _, err := cli.Exchange(0, []byte("y")); !errors.Is(err, ErrBrokenConn) {
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
	hdr := []byte{100, 0, 0, 0, 0, 0, 0, 0}
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
	cli, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Exchange(1, []byte("alive")); err != nil {
		t.Fatal(err)
	}
}
