package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// The ServerRestart fault: connection reset plus a skewed server
// incarnation on every later response, shared across reconnects through the
// RestartState. A session client must observe it exactly like a real
// process replacement — ErrServerRestarted, after which a fresh session
// joins — while the server (which never actually lost anything) applies
// every frame of every session exactly once.

func TestFaultyServerRestartForcesRehello(t *testing.T) {
	var applied atomic.Int64
	eo := NewExactlyOnce(func(dst []byte, worker int, payload []byte) ([]byte, error) {
		applied.Add(1)
		return append(dst, payload...), nil
	}, nil)

	st := &RestartState{}
	var dialCount int
	dial := func() (MuxLink, error) {
		dialCount++
		// Fresh fault schedule per connection (varying the seed keeps a
		// restart from firing on every first frame of every reconnect);
		// the shared RestartState makes the skew outlive each connection.
		return NewFaulty(&memLink{h: eo.Handle}, FaultConfig{
			Seed:          uint64(100 + dialCount),
			ServerRestart: 0.2,
			Restart:       st,
		}), nil
	}
	newSession := func() *PipelinedSession {
		p := NewPipelinedSession(dial, 1)
		p.MaxRetries, p.Backoff = 10, 0
		return p
	}
	c := newSession()

	const frames = 40
	restartErrs := 0
	for i := 0; i < frames; i++ {
		payload := []byte(fmt.Sprintf("frame-%d", i))
		resp, err := c.Exchange(1, payload)
		// The resilient worker loop's move: the restart ended this session,
		// so rejoin with a fresh one and send the frame again. Another
		// injected restart may hit the retry itself, hence the loop.
		for tries := 0; errors.Is(err, ErrServerRestarted) && tries < 20; tries++ {
			restartErrs++
			if _, again := c.Exchange(1, payload); !errors.Is(again, ErrServerRestarted) {
				t.Fatalf("frame %d: a restarted session answered %v, want the same terminal error", i, again)
			}
			c = newSession()
			resp, err = c.Exchange(1, payload)
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if string(resp) != string(payload) {
			t.Fatalf("frame %d: resp %q", i, resp)
		}
	}

	if st.Restarts() == 0 {
		t.Fatal("fault schedule injected no restarts; pick a different seed")
	}
	if restartErrs == 0 {
		t.Fatal("client never surfaced ErrServerRestarted despite injected restarts")
	}
	// Delivery accounting: every frame landed at least once. A retry after
	// a perceived restart is deliberately a NEW incarnation's frame (against
	// a really-restarted server it must re-execute), so a simulated server
	// that never lost its state may apply such frames twice; the excess is
	// bounded by the restarts observed. The DGS layer absorbs those
	// duplicates through resync, as §12 of DESIGN.md argues.
	n := applied.Load()
	if n < frames {
		t.Fatalf("handler applied %d frames, want at least %d", n, frames)
	}
	if n > int64(frames+restartErrs) {
		t.Fatalf("handler applied %d frames for %d logical + %d restart retries", n, frames, restartErrs)
	}
	// One hello per session: the original and one rejoin per restart.
	if s := eo.Stats(); s.Hellos != uint64(1+restartErrs) {
		t.Fatalf("server adopted %d hellos, want %d", s.Hellos, 1+restartErrs)
	}
}

func TestFaultyServerRestartSkewIsStable(t *testing.T) {
	// After a restart fires, every connection sharing the RestartState must
	// present the same skewed incarnation — a flapping identity would make
	// every rejoin fail with ErrServerRestarted forever.
	eo := NewExactlyOnce(appending(okHandler), nil)
	st := &RestartState{}
	f1 := NewFaulty(&memLink{h: eo.Handle}, FaultConfig{Seed: 1, ServerRestart: 1, Restart: st})
	if _, err := exchange(f1, 0, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("restart fault: got %v, want ErrInjected", err)
	}
	if st.Restarts() != 1 {
		t.Fatalf("restarts %d, want 1", st.Restarts())
	}

	incOf := func(seed uint64) uint64 {
		t.Helper()
		c := NewPipelinedSession(func() (MuxLink, error) {
			return NewFaulty(&memLink{h: eo.Handle}, FaultConfig{Seed: seed, Restart: st}), nil
		}, 1)
		if _, err := c.Exchange(0, []byte("y")); err != nil {
			t.Fatal(err)
		}
		return c.serverInc
	}
	i2, i3 := incOf(2), incOf(3)
	if i2 != i3 {
		t.Fatalf("skewed incarnations differ across connections: %d vs %d", i2, i3)
	}
	if i2 == eo.Incarnation() {
		t.Fatal("skew did not change the observed incarnation")
	}
}
