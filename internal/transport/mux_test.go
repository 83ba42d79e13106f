package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// plainEcho returns the payload unchanged (echoHandler prepends the worker
// byte, which gets in the way of string comparisons here).
func plainEcho(worker int, payload []byte) ([]byte, error) {
	return payload, nil
}

// Wire v2 round trip: several requests in flight on one connection, ids
// echoed back in order.
func TestMuxMultipleInFlight(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("w%d:%s", worker, payload)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const depth = 5
	ids := make([]uint64, depth)
	for i := 0; i < depth; i++ {
		ids[i], err = m.Submit(2, []byte(fmt.Sprintf("req-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if m.Pending() != depth {
		t.Fatalf("pending %d, want %d", m.Pending(), depth)
	}
	var buf []byte
	for i := 0; i < depth; i++ {
		id, resp, err := m.Recv(buf)
		buf = resp
		if err != nil {
			t.Fatal(err)
		}
		if id != ids[i] {
			t.Fatalf("response %d carries id %d, want %d (responses must arrive in request order)", i, id, ids[i])
		}
		want := fmt.Sprintf("w2:req-%d", i)
		if string(resp) != want {
			t.Fatalf("response %d = %q, want %q", i, resp, want)
		}
	}
}

// The server speaks wire v2 only: a request without the mux flag (the
// retired v1 framing) gets its connection closed without reaching the
// handler, and v2 clients are served as before.
func TestServerRefusesV1Frames(t *testing.T) {
	var calls atomic.Int32
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		calls.Add(1)
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	v1 := binary.LittleEndian.AppendUint32(nil, 8) // length
	v1 = binary.LittleEndian.AppendUint32(v1, 0)   // worker 0, no mux flag
	v1 = append(v1, "v1 frame"...)
	if _, err := conn.Write(v1); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 16)); err == nil {
		t.Fatalf("server answered a v1 frame with %d bytes", n)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("handler ran %d times on a v1 frame", n)
	}

	m, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if resp, err := exchange(m, 1, []byte("mux")); err != nil || string(resp) != "mux" {
		t.Fatalf("v2 exchange = %q, %v", resp, err)
	}
}

// Recv grows the caller's buffer once and reuses it afterwards.
func TestMuxRecvGrowOnceBuffer(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	big := bytes.Repeat([]byte("x"), 4096)
	if _, err := m.Submit(0, big); err != nil {
		t.Fatal(err)
	}
	_, buf, err := m.Recv(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(0, []byte("small")); err != nil {
		t.Fatal(err)
	}
	_, buf2, err := m.Recv(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != &buf2[0] {
		t.Fatal("Recv re-allocated a buffer that was already large enough")
	}
}

// A handler failure comes back as *ServerError with the id echoed and the
// connection intact.
func TestMuxServerErrorKeepsConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		if string(payload) == "bad" {
			return nil, errors.New("rejected")
		}
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	badID, err := m.Submit(0, []byte("bad"))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := m.Recv(nil)
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
	if id != badID {
		t.Fatalf("error response id %d, want %d", id, badID)
	}
	if _, err := m.Submit(0, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if _, resp, err := m.Recv(nil); err != nil || string(resp) != "good" {
		t.Fatalf("post-error exchange = %q, %v", resp, err)
	}
}

// Recv with nothing outstanding is a caller bug, not a network fault.
func TestMuxRecvWithoutSubmitIsMisuse(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Recv(nil); !errors.Is(err, ErrMuxMisuse) {
		t.Fatalf("err = %v, want ErrMuxMisuse", err)
	}
}
