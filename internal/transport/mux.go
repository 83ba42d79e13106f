package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// MuxLink is the wire-v2 client interface the pipelined session layer
// drives: Submit writes one framed request without waiting for its
// response; Recv blocks for the oldest outstanding response. MuxConn is the
// real-socket implementation; Faulty decorates any link with seeded fault
// injection.
type MuxLink interface {
	Submit(worker int, frame []byte) (id uint64, err error)
	Recv(buf []byte) (id uint64, resp []byte, err error)
	Close() error
}

// ErrMuxMisuse reports a protocol-shaped misuse of a mux link (receiving
// with nothing outstanding, submitting on a broken link). It indicates a
// caller bug, not a network fault.
var ErrMuxMisuse = errors.New("transport: mux link misuse")

// MuxConn is the client side of the wire-v2 multiplexed framing: one TCP
// connection carrying up to PipelineDepth in-flight request/response pairs,
// matched by an explicit request id instead of strict request/response
// alternation.
//
// Submit and Recv are split so a single goroutine can keep several
// exchanges in flight without any client-side concurrency: Submit writes
// the frame (one writev) and returns immediately — the kernel socket
// buffers carry the overlap while the worker computes — and Recv later
// reads the oldest response. The server processes one connection's frames
// strictly in order, so responses arrive in request order; the echoed id is
// a pairing check that turns any desynchronisation into a hard error
// instead of a silent request/response mismatch (the head-of-line
// re-ordering bug class).
//
// A MuxConn is owned by one goroutine (normally a PipelinedSession); it is
// not safe for concurrent use. After any partial frame the connection is
// broken and every call fails fast with ErrBrokenConn.
type MuxConn struct {
	Traffic *Traffic

	// ExchangeTimeout, when positive, bounds each Submit write and each
	// Recv read individually. Expiry breaks the connection (the stream
	// position is unknown); pair with the pipelined session's
	// reconnect-and-replay.
	ExchangeTimeout time.Duration

	conn    net.Conn
	nextID  uint64
	pending int
	broken  bool

	// hdr and wb back the single-writev request write (one syscall, one
	// packet for small frames; wbufs is re-pointed at wb before every write
	// because net.Buffers.WriteTo consumes the slice as it drains); rhdr
	// receives response headers. Fields, not locals, so the exchange path
	// stays allocation-free — locals passed through net.Conn escape.
	hdr   [16]byte
	rhdr  [13]byte
	wb    [2][]byte
	wbufs net.Buffers
	// sent[i] tracks the payload length of in-flight request ids for
	// traffic accounting when the response lands.
	sentBytes []int
}

// DialMux connects a mux client to a TCPServer.
func DialMux(addr string) (*MuxConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &MuxConn{conn: conn, Traffic: &Traffic{}}, nil
}

// Pending returns the number of submitted requests not yet received.
func (m *MuxConn) Pending() int { return m.pending }

// Submit writes one request frame and returns its id without waiting for
// the response. The frame bytes are fully copied to the socket before
// Submit returns, so the caller may reuse them afterwards.
func (m *MuxConn) Submit(worker int, frame []byte) (uint64, error) {
	if m.broken {
		return 0, ErrBrokenConn
	}
	if m.ExchangeTimeout > 0 {
		if err := m.conn.SetWriteDeadline(time.Now().Add(m.ExchangeTimeout)); err != nil {
			m.broken = true
			return 0, fmt.Errorf("transport: set write deadline: %w", err)
		}
	}
	id := m.nextID
	m.nextID++
	binary.LittleEndian.PutUint32(m.hdr[:4], uint32(len(frame)))
	binary.LittleEndian.PutUint32(m.hdr[4:8], uint32(worker)|muxWorkerFlag)
	binary.LittleEndian.PutUint64(m.hdr[8:], id)
	m.wb[0] = m.hdr[:]
	m.wb[1] = frame
	m.wbufs = net.Buffers(m.wb[:])
	if _, err := m.wbufs.WriteTo(m.conn); err != nil {
		m.broken = true
		return 0, fmt.Errorf("transport: write request: %w", err)
	}
	m.pending++
	m.sentBytes = append(m.sentBytes, len(frame))
	tmet.muxSubmits.Inc()
	return id, nil
}

// Recv reads the oldest outstanding response. The response payload is read
// into buf when its capacity suffices (the returned slice aliases it);
// otherwise a larger buffer is allocated and returned for the caller to
// keep — the grow-once pattern. A statusError frame is returned as
// *ServerError with the connection intact; any framing failure breaks the
// connection.
func (m *MuxConn) Recv(buf []byte) (uint64, []byte, error) {
	if m.broken {
		return 0, buf, ErrBrokenConn
	}
	if m.pending == 0 {
		return 0, buf, fmt.Errorf("%w: Recv with no outstanding request", ErrMuxMisuse)
	}
	if m.ExchangeTimeout > 0 {
		if err := m.conn.SetReadDeadline(time.Now().Add(m.ExchangeTimeout)); err != nil {
			m.broken = true
			return 0, buf, fmt.Errorf("transport: set read deadline: %w", err)
		}
	}
	if _, err := io.ReadFull(m.conn, m.rhdr[:]); err != nil {
		m.broken = true
		return 0, buf, fmt.Errorf("transport: read response header: %w", err)
	}
	n := binary.LittleEndian.Uint32(m.rhdr[:4])
	status := m.rhdr[4]
	id := binary.LittleEndian.Uint64(m.rhdr[5:])
	if n > maxFrame {
		m.broken = true
		return 0, buf, errors.New("transport: response frame too large")
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(m.conn, buf); err != nil {
		m.broken = true
		return 0, buf, fmt.Errorf("transport: read response: %w", err)
	}
	m.pending--
	sent := m.sentBytes[0]
	m.sentBytes = m.sentBytes[:copy(m.sentBytes, m.sentBytes[1:])]
	switch status {
	case statusOK:
	case statusRetry:
		// Admission rejection: never executed, connection intact; the
		// pipelined session backs off and replays the window.
		return id, buf, &RetryAfterError{After: decodeRetryHint(buf)}
	default:
		// The frame itself was intact, so the connection stays usable.
		return id, buf, &ServerError{Msg: string(buf)}
	}
	if m.Traffic != nil {
		m.Traffic.Record(sent, len(buf))
	}
	return id, buf, nil
}

// Close closes the connection.
func (m *MuxConn) Close() error {
	m.broken = true
	return m.conn.Close()
}
