package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Wire framing (v2, little endian):
//
//	request:  u32 payload length | u32 worker id (bit 31 set) |
//	          u64 request id | payload
//	response: u32 payload length | u8 status | u64 request id | payload
//
// The response status byte distinguishes a successful exchange (statusOK,
// payload is the handler's response) from a handler failure (statusError,
// payload is the error message). Explicit error frames keep the connection
// alive and let the client tell an application error apart from a network
// fault — a crucial distinction for retry layers, because retrying an
// application error re-submits a request the server already rejected,
// while retrying a network fault is safe under the exactly-once session
// protocol (see session.go).
//
// The request id, echoed back in the response header, lets one connection
// carry several in-flight exchanges (see MuxConn in mux.go) while the
// client verifies that requests and responses stay paired. The server
// processes a connection's frames strictly in arrival order — required by
// the session layer's sequence numbering — so responses come back in
// request order and the id is a pairing check, not a reordering mechanism.
// Bit 31 of the worker field marks the framing: the unmarked request of the
// retired v1 framing (no request id) is refused by closing the connection.
//
// maxFrame bounds allocations against corrupt or hostile length prefixes.
const maxFrame = 1 << 30

// muxWorkerFlag marks a request header as wire-v2 (request-id framed). It
// occupies bit 31 of the worker-id field, which real worker ids (small
// non-negative ints) never reach.
const muxWorkerFlag = 1 << 31

const (
	statusOK    = 0x00
	statusError = 0x01
	// statusRetry is an overload rejection (admission control / drain, see
	// Gate): the handler was never invoked, the connection is intact, and
	// the same frame should be re-sent after the hinted delay. The payload
	// is a u32 retry-after hint in milliseconds.
	statusRetry = 0x04
)

// ServerError is an application-level failure reported by the server through
// an explicit error frame. It indicates the request reached the server and
// was rejected by the handler — the connection and the stream framing are
// intact, and retrying the same request will deterministically fail again,
// so retry layers must not treat it as a network fault.
type ServerError struct{ Msg string }

// Error implements error.
func (e *ServerError) Error() string { return "transport: server error: " + e.Msg }

// RetryAfterError is an admission-control rejection (see Gate): the server
// is overloaded or draining and refused the request WITHOUT executing it.
// Unlike ServerError, re-sending the same frame after the hinted delay is
// expected to succeed; unlike a network fault, the connection is intact, so
// retry layers back off without redialling.
type RetryAfterError struct {
	// After is the server's suggested minimum delay before retrying.
	After time.Duration
}

// Error implements error.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("transport: server busy, retry after %v", e.After)
}

// encodeRetryHint packs the retry-after hint for a statusRetry frame.
func encodeRetryHint(dst []byte, after time.Duration) []byte {
	ms := after.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > 1<<31 {
		ms = 1 << 31
	}
	dst = dst[:0]
	dst = append(dst, byte(ms), byte(ms>>8), byte(ms>>16), byte(ms>>24))
	return dst
}

// decodeRetryHint unpacks a statusRetry payload (lenient: a malformed hint
// degrades to zero, leaving the retry layer's own backoff in charge).
func decodeRetryHint(b []byte) time.Duration {
	if len(b) < 4 {
		return 0
	}
	return time.Duration(binary.LittleEndian.Uint32(b)) * time.Millisecond
}

// ErrBrokenConn is returned by MuxConn after a previous call failed partway
// through a frame. The stream position is then unknown
// (a half-written request or half-read response would desynchronise all
// subsequent frames), so the client refuses further use instead of
// interleaving garbage; callers reconnect to recover.
var ErrBrokenConn = errors.New("transport: connection broken by earlier partial frame")

// TCPServer accepts worker connections and dispatches frames to a Handler.
type TCPServer struct {
	H       Handler
	Traffic *Traffic

	// exchangeTimeout is accessed atomically: SetExchangeTimeout is called
	// from the owning goroutine after listening has started, while every
	// serve goroutine reads it per frame.
	exchangeTimeout atomic.Int64

	listener net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ListenTCP starts a server on addr (e.g. "127.0.0.1:0") and begins
// accepting connections in the background.
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &TCPServer{H: h, Traffic: &Traffic{}, listener: ln, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

// SetExchangeTimeout bounds each exchange when d is positive: once a
// request header arrives, reading the payload, running the handler, and
// writing the response must complete within this budget or the connection
// is closed. Waiting for the next request header is not bounded (idle
// workers computing a batch are fine). Safe to call while serving; it
// applies from each connection's next exchange.
func (s *TCPServer) SetExchangeTimeout(d time.Duration) {
	s.exchangeTimeout.Store(int64(d))
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// All fixed-size frame headers live outside the loop: locals passed
	// through the net.Conn interface escape to the heap, and the per-frame
	// serve path must not allocate.
	var hdr [16]byte
	var rhdr [13]byte
	// wb and wbufs back the single-writev response write, as in MuxConn:
	// wbufs is re-pointed at wb before every write because
	// net.Buffers.WriteTo consumes the slice as it drains.
	var wb [2][]byte
	var wbufs net.Buffers
	// payload is the per-connection request buffer, grown once to the
	// largest frame seen (the mirror of a slot's response buffer). Safe to
	// reuse across frames: handlers may alias it in their response, but the
	// response is written before the next frame is read, and anything
	// retained longer (the exactly-once replay cache) is freshly encoded.
	var payload []byte
	// hint is the statusRetry payload scratch (admission rejections must not
	// allocate — an overloaded server is exactly when that matters).
	hint := make([]byte, 0, 4)
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		// The request header marks the start of an exchange: from here the
		// per-exchange deadline applies to the payload, the handler, and the
		// response write.
		timeout := time.Duration(s.exchangeTimeout.Load())
		if timeout > 0 {
			if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
				return
			}
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		worker := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxFrame || worker&muxWorkerFlag == 0 {
			return
		}
		worker &^= muxWorkerFlag
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		h0 := time.Now()
		resp, err := s.callHandler(int(worker), payload)
		tmet.handlerSeconds.Observe(time.Since(h0).Seconds())
		status := byte(statusOK)
		if err != nil {
			var ra *RetryAfterError
			if errors.As(err, &ra) {
				// Admission rejection: a dedicated status so the client can
				// tell "back off and re-send" apart from both a handler
				// failure (which would fail again) and a network fault
				// (which would tear the connection down).
				status = statusRetry
				hint = encodeRetryHint(hint, ra.After)
				resp = hint
			} else {
				// Handler failure: report it as an explicit error frame and
				// keep serving. Dropping the connection here would masquerade
				// as a network fault and trigger a pointless (or,
				// pre-session-layer, unsafe) retry on the client.
				status = statusError
				resp = []byte(err.Error())
			}
		}
		// The request id is echoed verbatim from the request header.
		binary.LittleEndian.PutUint32(rhdr[:4], uint32(len(resp)))
		rhdr[4] = status
		copy(rhdr[5:], hdr[8:])
		// Header and payload in one writev: one syscall per exchange, and no
		// separate tiny header segment under TCP_NODELAY.
		wb[0], wb[1] = rhdr[:], resp
		wbufs = wb[:]
		if _, err := wbufs.WriteTo(conn); err != nil {
			return
		}
		if status == statusOK {
			s.Traffic.Record(int(n), len(resp))
		}
		if timeout > 0 {
			if err := conn.SetDeadline(time.Time{}); err != nil {
				return
			}
		}
	}
}

// callHandler invokes the handler with a panic barrier: a panic provoked by
// one client's frame (e.g. a worker pushing mismatched model geometry) must
// come back as an error frame on that client's connection, not take down
// the server for every other worker.
func (s *TCPServer) callHandler(worker int, payload []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	return s.H(worker, payload)
}

// Close stops accepting, closes every connection, and waits for handler
// goroutines to finish.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
