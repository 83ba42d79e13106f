package main

import (
	"fmt"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// stack is one server endpoint, layered as cmd/dgs-server layers it:
// parameter server → exactly-once codec handler → admission gate → TCP.
type stack struct {
	pusher ps.Pusher // *ps.Server, or *ps.ShardedServer when shards > 1
	eo     *transport.ExactlyOnce
	gate   *transport.Gate
	lis    *transport.TCPServer
}

// serverTrace tells newStack how to name the spans of a traced pass:
// handler spans are children of parent, except those of the reader slot,
// which a replica's polls cause.
type serverTrace struct {
	tr     *tracer
	parent string
	reader int // worker id of the replica's slot, -1 when there is none
}

// newStack builds and starts a server endpoint on a loopback port. A nil
// st.tr leaves every layer exactly as production wires it; otherwise the
// Pusher and the listener's Handler are wrapped to record spans.
func newStack(cfg ps.Config, shards int, st serverTrace) (*stack, error) {
	s := &stack{}
	if shards > 1 {
		s.pusher = ps.NewShardedServer(cfg, shards)
	} else {
		s.pusher = ps.NewServer(cfg)
	}
	served := s.pusher
	var seq []int
	if st.tr != nil {
		seq = newStepSeq(cfg.Workers)
		served = &tracedPusher{Pusher: s.pusher, fold: s.pusher.(ps.DownFolder), tr: st.tr, seq: seq}
	}
	var err error
	if s.eo, err = trainer.ExactlyOnceHandlerWithCodec(served, "mirror"); err != nil {
		return nil, err
	}
	s.gate = transport.NewGate(s.eo.Handle, 0)
	h := transport.Handler(s.gate.Handle)
	if st.tr != nil {
		h = traceHandler(h, spanHandle, st, seq)
	}
	if s.lis, err = transport.ListenTCP("127.0.0.1:0", h); err != nil {
		return nil, err
	}
	s.lis.SetExchangeTimeout(exchangeTimeout)
	return s, nil
}

// failures counts what the server side saw go wrong: replayed (retried)
// frames, fenced or unorderable frames, and admission rejections.
func (s *stack) failures() int {
	ss, gs := s.eo.Stats(), s.gate.Stats()
	return int(ss.Replays + ss.StaleRejected + ss.BadSeq + gs.RejectedOverload + gs.RejectedDrain)
}

// newStepSeq returns per-worker exchange counters for the server side of a
// traced pass. A worker's exchanges are serialised by its session, so the
// n-th handler call for worker k is k's n-th exchange; the session hello
// that setup sends is step -1, the first measured exchange step 0. Each
// worker's goroutine touches only its own element.
func newStepSeq(workers int) []int {
	seq := make([]int, workers)
	for i := range seq {
		seq[i] = -1
	}
	return seq
}

func traceHandler(next transport.Handler, name string, st serverTrace, seq []int) transport.Handler {
	return func(worker int, payload []byte) ([]byte, error) {
		step := seq[worker]
		seq[worker]++
		parent := st.parent
		if worker == st.reader {
			parent = spanPoll
		}
		t0 := time.Now()
		resp, err := next(worker, payload)
		st.tr.record(name, parent, worker, step, t0, time.Now())
		return resp, err
	}
}

// tracedPusher times ps.Pusher.Push. It forwards FoldDown so the codec
// handler still sees a server that can fold downward quantization error.
type tracedPusher struct {
	ps.Pusher
	fold ps.DownFolder
	tr   *tracer
	seq  []int
}

func (p *tracedPusher) Push(worker int, g *sparse.Update) (sparse.Update, uint64) {
	t0 := time.Now()
	G, ts := p.Pusher.Push(worker, g)
	p.tr.record(spanPush, spanHandle, worker, p.seq[worker]-1, t0, time.Now())
	return G, ts
}

func (p *tracedPusher) FoldDown(worker int, e *sparse.Update) { p.fold.FoldDown(worker, e) }

// Client stack settings: cmd/dgs-worker's defaults.
const (
	exchangeTimeout = 30 * time.Second
	dialRetries     = 8
	dialBackoff     = 50 * time.Millisecond
	dialMaxBackoff  = 2 * time.Second
)

var emptyFrame = sparse.Encode(&sparse.Update{})

// dialWorker builds one worker incarnation with trainer.NewDialStack and
// sends the session hello, so the server has adopted the session (and
// shipped its first, dense, difference) before anything is measured.
// depth > 1 selects the native PipelinedSession/MuxConn stack.
func dialWorker(addr string, id, depth int) (transport.Transport, error) {
	tr, err := trainer.NewDialStack(trainer.DialOptions{
		Addr: addr, Pipeline: depth, Timeout: exchangeTimeout,
		Retries: dialRetries, Backoff: dialBackoff, MaxBackoff: dialMaxBackoff,
	})()
	if err != nil {
		return nil, err
	}
	if _, err := tr.Exchange(id, emptyFrame); err != nil {
		tr.Close()
		return nil, fmt.Errorf("hello worker %d: %w", id, err)
	}
	return tr, nil
}
