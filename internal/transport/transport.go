// Package transport moves encoded updates between workers and the
// parameter server. A worker holds a Pipeliner: Submit sends one update,
// Await returns the server's response, oldest first, with up to a
// configured depth of exchanges in flight (depth 1 is the synchronous
// exchange). There are two: PipelinedSession, the one network client — an
// exactly-once session over wire-v2 multiplexed framing to a TCPServer
// serving an ExactlyOnce handler, with redial-and-replay on faults — and
// Loopback, which runs the handler in-process. Faulty decorates the
// session's link with seeded fault injection, and Gate sheds load on the
// server side. Traffic counters let experiments report exact communication
// volumes.
package transport

import (
	"sync/atomic"
	"time"
)

// Transport is the worker-side communication handle: one round trip sends
// the worker's encoded update and returns the server's encoded response.
type Transport interface {
	// Exchange performs a synchronous request/response for the given
	// worker id and returns the server's payload.
	Exchange(worker int, payload []byte) ([]byte, error)
	// Close releases resources. Exchange must not be called afterwards.
	Close() error
}

// Traffic counts bytes moved in each direction. All methods are safe for
// concurrent use.
type Traffic struct {
	up, down, exchanges atomic.Int64
}

// Record adds one exchange's byte counts.
func (t *Traffic) Record(upBytes, downBytes int) {
	t.up.Add(int64(upBytes))
	t.down.Add(int64(downBytes))
	t.exchanges.Add(1)
}

// Up returns total worker→server bytes.
func (t *Traffic) Up() int64 { return t.up.Load() }

// Down returns total server→worker bytes.
func (t *Traffic) Down() int64 { return t.down.Load() }

// Exchanges returns the number of round trips recorded.
func (t *Traffic) Exchanges() int64 { return t.exchanges.Load() }

// Handler is the server-side processing function: it receives a worker id
// and the request payload and returns the response payload.
type Handler func(worker int, payload []byte) ([]byte, error)

// Loopback dispatches exchanges directly to a Handler in-process while
// still exercising the full encode/decode path and recording traffic. As a
// Pipeliner it runs the handler inline at Submit and hands the result out at
// Await, so one Loopback serves one worker goroutine; Exchange alone is safe
// for concurrent use.
type Loopback struct {
	H       Handler
	Traffic *Traffic

	pending []loopResult // submitted, not yet awaited; oldest first
}

type loopResult struct {
	resp []byte
	err  error
}

// NewLoopback wraps a handler.
func NewLoopback(h Handler) *Loopback {
	return &Loopback{H: h, Traffic: &Traffic{}}
}

// Exchange implements Transport.
func (l *Loopback) Exchange(worker int, payload []byte) ([]byte, error) {
	t0 := time.Now()
	resp, err := l.H(worker, payload)
	if err != nil {
		tmet.exchangeErrors.Inc()
		return nil, err
	}
	tmet.exchangeSeconds.Observe(time.Since(t0).Seconds())
	l.Traffic.Record(len(payload), len(resp))
	return resp, nil
}

// Submit implements Pipeliner: the handler runs here, in the caller's
// goroutine, and its response waits for Await. Handlers return fresh
// response slices (the exactly-once replay cache already relies on that),
// so holding them is safe.
func (l *Loopback) Submit(worker int, payload []byte) error {
	resp, err := l.Exchange(worker, payload)
	l.pending = append(l.pending, loopResult{resp, err})
	return nil
}

// Await implements Pipeliner.
func (l *Loopback) Await() ([]byte, error) {
	if len(l.pending) == 0 {
		return nil, errWindowEmpty
	}
	r := l.pending[0]
	l.pending = l.pending[:copy(l.pending, l.pending[1:])]
	return r.resp, r.err
}

// InFlight implements Pipeliner.
func (l *Loopback) InFlight() int { return len(l.pending) }

// Close implements Transport; loopback holds no resources.
func (l *Loopback) Close() error { return nil }
