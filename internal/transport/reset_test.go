package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// ExactlyOnce.Reset fences every downstream session in place: same
// middleware object, same connections, but a fresh incarnation and an empty
// session table — the aggregator's tool for forcing its workers through
// the hello → resync path after an upstream restart invalidates the mirror.

func TestResetFencesEstablishedSessions(t *testing.T) {
	var joins atomic.Int32 // the hook runs on the server's goroutines
	eo := NewExactlyOnce(appending(okHandler), func(worker int) error { joins.Add(1); return nil })
	srv, err := ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialSession(t, srv.Addr(), 1)

	if _, err := c.Exchange(3, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exchange(3, []byte("b")); err != nil {
		t.Fatal(err)
	}
	before := eo.Incarnation()

	eo.Reset()
	if eo.Incarnation() == before {
		t.Fatal("Reset kept the old incarnation id")
	}

	// The established client's next frame must bounce as the recoverable
	// restart error, never the fatal supersession error.
	_, err = c.Exchange(3, []byte("c"))
	if !errors.Is(err, ErrServerRestarted) {
		t.Fatalf("exchange after Reset: got %v, want ErrServerRestarted", err)
	}
	if errors.Is(err, ErrStaleSession) {
		t.Fatal("Reset must not surface as the fatal stale-session error")
	}

	// A fresh session joins the new incarnation and triggers the resync
	// hook.
	resp, err := dialSession(t, srv.Addr(), 1).Exchange(3, []byte("d"))
	if err != nil {
		t.Fatalf("rejoin exchange: %v", err)
	}
	if string(resp) != "\x03d" {
		t.Fatalf("rejoin resp %q", resp)
	}
	if n := joins.Load(); n != 2 { // initial hello + post-reset rejoin
		t.Fatalf("onJoin ran %d times, want 2", n)
	}
	if st := eo.Stats(); st.Resets != 1 || st.Hellos != 2 || st.StaleRejected != 1 {
		t.Fatalf("post-reset stats %+v: want 1 reset, 2 hellos (join + rejoin), 1 stale rejection", st)
	}
}

// A Reset landing while a handler is executing must not mix worlds: the
// in-flight exchange answers with the incarnation it read at entry, so its
// client accepts the response, and only the following frame gets fenced.
func TestResetMidExchangeAnswersOldIncarnation(t *testing.T) {
	eo := NewExactlyOnce(appending(okHandler), nil)
	inHandler := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	eo.h = appending(func(worker int, payload []byte) ([]byte, error) {
		once.Do(func() { close(inHandler); <-release })
		return okHandler(worker, payload)
	})
	srv, err := ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialSession(t, srv.Addr(), 1)

	done := make(chan error, 1)
	go func() {
		_, err := c.Exchange(5, []byte("x"))
		done <- err
	}()
	<-inHandler
	eo.Reset()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight exchange failed across Reset: %v", err)
	}
	// The next frame sees the new incarnation; a fresh session recovers.
	if _, err := c.Exchange(5, []byte("y")); !errors.Is(err, ErrServerRestarted) {
		t.Fatalf("post-reset exchange: got %v, want ErrServerRestarted", err)
	}
	if _, err := dialSession(t, srv.Addr(), 1).Exchange(5, []byte("z")); err != nil {
		t.Fatalf("rejoin exchange: %v", err)
	}
}
