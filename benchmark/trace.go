package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names: one per layer boundary the traced pass times. The benchmark
// records them around calls into each layer's public functions; nothing
// inside the program under test is instrumented.
const (
	spanStep     = "step" // root: one worker step / one generator round
	spanData     = "data.next"
	spanFwdBwd   = "nn.fwd_bwd"
	spanPrepare  = "optim.prepare"
	spanEncode   = "sparse.encode_up"
	spanExchange = "transport.exchange" // request handed over → response in hand
	spanSubmit   = "transport.submit"
	spanAwait    = "transport.await" // comms time not hidden behind compute
	spanDecode   = "sparse.decode_down"
	spanScatter  = "sparse.scatter"
	spanHandle   = "trainer.handle" // the transport.Handler given to the listener
	spanPush     = "ps.push"
	spanAgg      = "agg.handle"
	spanPoll     = "replica.poll" // parent of the handler spans a replica's polls cause
	spanSnapshot = "replica.snapshot"
)

// span is one timed call. Spans of one exchange share (Worker, Step);
// Parent names the span that caused this one. Times are nanoseconds since
// the tracer was created.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Worker int    `json:"worker"`
	Step   int    `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotal is the busy time and call count of one (name, parent) pair.
type spanTotal struct {
	ns    int64
	count int64
}

// perCall is the mean span duration in milliseconds.
func (s spanTotal) perCall() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.ns) / 1e6 / float64(s.count)
}

// ringSpans bounds the spans kept for the trace file; totals cover every
// span recorded. 1<<16 holds the last few thousand steps of any workload.
const ringSpans = 1 << 16

// tracer keeps the most recent spans in a preallocated ring and running
// totals per (name, parent). It is shared by the client and server sides of
// the in-process topology, so one mutex orders all writers.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	ring   []span
	n      int
	totals map[[2]string]*spanTotal
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ring: make([]span, ringSpans), totals: map[[2]string]*spanTotal{}}
}

func (t *tracer) record(name, parent string, worker, step int, start, end time.Time) {
	t.mu.Lock()
	t.ring[t.n%ringSpans] = span{name, parent, worker, step, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()}
	t.n++
	tot := t.totals[[2]string{name, parent}]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[[2]string{name, parent}] = tot
	}
	tot.ns += end.Sub(start).Nanoseconds()
	tot.count++
	t.mu.Unlock()
}

func (t *tracer) total(name, parent string) spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[[2]string{name, parent}]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// coverage is the share of step wall time its top-level spans account for.
func (t *tracer) coverage() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var top, step int64
	for key, tot := range t.totals {
		switch {
		case key[0] == spanStep:
			step += tot.ns
		case key[1] == spanStep:
			top += tot.ns
		}
	}
	if step == 0 {
		return 0
	}
	return float64(top) / float64(step)
}

// write dumps the ring, oldest span first, as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	kept := t.n
	if kept > ringSpans {
		kept = ringSpans
	}
	spans := make([]span, 0, kept)
	for i := t.n - kept; i < t.n; i++ {
		spans = append(spans, t.ring[i%ringSpans])
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
