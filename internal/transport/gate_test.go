package transport

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Admission control: overloaded pushes must be refused with a RetryAfter
// frame (never queued, never executed), drain must quiesce the handler, and
// the retry layers must treat the rejection as a back-off-and-resend —
// not a fatal server error.

func TestGateRejectsBeyondMaxInflight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	g := NewGate(func(worker int, payload []byte) ([]byte, error) {
		started <- struct{}{}
		<-release
		return payload, nil
	}, 2)
	g.RetryHint = 7 * time.Millisecond

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Handle(0, []byte("x")); err != nil {
				t.Errorf("admitted exchange failed: %v", err)
			}
		}()
	}
	<-started
	<-started

	// Third concurrent request: must be shed immediately with the hint.
	_, err := g.Handle(1, []byte("y"))
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("over-budget exchange: got %v, want *RetryAfterError", err)
	}
	if ra.After != 7*time.Millisecond {
		t.Fatalf("hint %v, want 7ms", ra.After)
	}

	close(release)
	wg.Wait()
	if g.Inflight() != 0 {
		t.Fatalf("inflight %d after completion, want 0", g.Inflight())
	}
	// Capacity freed: the retried request is admitted.
	if _, err := g.Handle(1, []byte("y")); err != nil {
		t.Fatalf("retry after capacity freed: %v", err)
	}
}

func TestGateUnboundedStillDrains(t *testing.T) {
	g := NewGate(func(worker int, payload []byte) ([]byte, error) {
		return payload, nil
	}, 0)
	for i := 0; i < 10; i++ {
		if _, err := g.Handle(i, nil); err != nil {
			t.Fatalf("unbounded gate rejected: %v", err)
		}
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Handle(0, nil); !errors.As(err, new(*RetryAfterError)) {
		t.Fatalf("post-drain exchange: got %v, want RetryAfter", err)
	}
}

func TestGateDrainWaitsForInflight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var enterOnce sync.Once
	var finished atomic.Bool
	g := NewGate(func(worker int, payload []byte) ([]byte, error) {
		var first bool
		enterOnce.Do(func() { first = true })
		if first {
			close(entered)
			<-release
			finished.Store(true)
		}
		return payload, nil
	}, 4)
	g.DrainHint = 50 * time.Millisecond

	go g.Handle(0, []byte("slow"))
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- g.Drain(context.Background()) }()

	// While draining, new work is refused with the drain hint.
	time.Sleep(5 * time.Millisecond)
	_, err := g.Handle(1, []byte("late"))
	var ra *RetryAfterError
	if !errors.As(err, &ra) || ra.After != 50*time.Millisecond {
		t.Fatalf("exchange during drain: got %v, want RetryAfter(50ms)", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a request still in flight", err)
	default:
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !finished.Load() {
		t.Fatal("drain returned before the in-flight request finished")
	}

	g.Resume()
	if _, err := g.Handle(2, []byte("again")); err != nil {
		t.Fatalf("post-resume exchange: %v", err)
	}
}

func TestGateDrainHonoursContext(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{})
	g := NewGate(func(worker int, payload []byte) ([]byte, error) {
		close(entered)
		<-release
		return nil, nil
	}, 1)
	go g.Handle(0, nil)
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck handler: got %v, want deadline exceeded", err)
	}
	// A cancelled drain stays closed: shutdown was already decided.
	if _, err := g.Handle(1, nil); !errors.As(err, new(*RetryAfterError)) {
		t.Fatalf("exchange after cancelled drain: got %v, want RetryAfter", err)
	}
}

// TestRetryAfterRoundTripTCP drives the full wire path at depth 1: a gated
// handler sheds load with statusRetry frames, the mux link decodes them into
// *RetryAfterError with the connection intact, and the session re-sends on
// the same connection until admitted.
func TestRetryAfterRoundTripTCP(t *testing.T) {
	var rejections atomic.Int64
	eo := NewExactlyOnce(func(dst []byte, worker int, payload []byte) ([]byte, error) {
		return append(append(dst, "ok:"...), payload...), nil
	}, nil)
	gated := func(worker int, payload []byte) ([]byte, error) {
		if rejections.Add(1) <= 3 {
			return nil, &RetryAfterError{After: time.Millisecond}
		}
		return eo.Handle(worker, payload)
	}
	srv, err := ListenTCP("127.0.0.1:0", gated)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var dials atomic.Int64
	p := NewPipelinedSession(func() (MuxLink, error) {
		dials.Add(1)
		return DialMux(srv.Addr())
	}, 1)
	p.MaxRetries = 10
	p.Backoff = 0 // hint-only sleeps keep the test fast
	defer p.Close()

	resp, err := p.Exchange(3, []byte("p"))
	if err != nil {
		t.Fatalf("exchange through overload: %v", err)
	}
	if string(resp) != "ok:p" {
		t.Fatalf("resp %q", resp)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dials %d: RetryAfter must not tear down the connection", n)
	}
	if n := rejections.Load(); n != 4 {
		t.Fatalf("server saw %d attempts, want 4 (3 shed + 1 admitted)", n)
	}
}

// TestRetryAfterRoundTripMux: the wire-v2 path — a pipelined session whose
// window hits an admission rejection backs off and replays; the server's
// replay cache keeps the retried frames exactly-once.
func TestRetryAfterRoundTripMux(t *testing.T) {
	var applied atomic.Int64
	var shed atomic.Int64
	eo := NewExactlyOnce(func(dst []byte, worker int, payload []byte) ([]byte, error) {
		applied.Add(1)
		return append(dst, payload...), nil
	}, nil)
	// Shed the first frame of the second window at admission, outside the
	// session layer, exactly as a Gate would.
	gated := func(worker int, payload []byte) ([]byte, error) {
		if shed.Add(1) == 3 {
			return nil, &RetryAfterError{After: time.Millisecond}
		}
		return eo.Handle(worker, payload)
	}
	srv, err := ListenTCP("127.0.0.1:0", gated)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := NewPipelinedSession(func() (MuxLink, error) { return DialMux(srv.Addr()) }, 2)
	p.Backoff = time.Millisecond
	p.MaxRetries = 10
	defer p.Close()

	for i := 0; i < 4; i++ {
		if err := p.Submit(0, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		resp, err := p.Await()
		if err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
		if want := string(byte('a' + i)); string(resp) != want {
			t.Fatalf("await %d: resp %q, want %q", i, resp, want)
		}
	}
	if n := applied.Load(); n != 4 {
		t.Fatalf("handler applied %d frames, want exactly 4 (replay must dedupe)", n)
	}
}

// TestGateConcurrentNeverExceedsBound hammers the gate from many goroutines
// and asserts the bound is a hard invariant, not a best-effort hint.
func TestGateConcurrentNeverExceedsBound(t *testing.T) {
	const bound = 3
	var cur, peak atomic.Int64
	g := NewGate(func(worker int, payload []byte) ([]byte, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return nil, nil
	}, bound)

	var wg sync.WaitGroup
	var admitted, rejected atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for j := 0; j < 50; j++ {
				_, err := g.Handle(w, nil)
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.As(err, new(*RetryAfterError)):
					rejected.Add(1)
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("peak concurrency %d exceeded bound %d", p, bound)
	}
	if admitted.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("admitted=%d rejected=%d: test needs both outcomes to mean anything",
			admitted.Load(), rejected.Load())
	}
}
