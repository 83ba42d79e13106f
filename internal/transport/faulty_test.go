package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// memLink is an in-process MuxLink: Submit runs the handler inline and
// queues its answer for Recv, the way a server answers one connection's
// frames in order. Errors come back framed as MuxConn reports them.
type memLink struct {
	h       Handler
	nextID  uint64
	queue   []memResp
	submits int
	closed  bool
}

type memResp struct {
	id   uint64
	resp []byte
	err  error
}

func (m *memLink) Submit(worker int, frame []byte) (uint64, error) {
	if m.closed {
		return 0, ErrBrokenConn
	}
	m.submits++
	id := m.nextID
	m.nextID++
	resp, err := m.h(worker, append([]byte(nil), frame...))
	var ra *RetryAfterError
	if err != nil && !errors.As(err, &ra) {
		err = &ServerError{Msg: err.Error()}
	}
	m.queue = append(m.queue, memResp{id, resp, err})
	return id, nil
}

func (m *memLink) Recv(buf []byte) (uint64, []byte, error) {
	if m.closed {
		return 0, buf, ErrBrokenConn
	}
	if len(m.queue) == 0 {
		return 0, buf, fmt.Errorf("%w: Recv with no outstanding request", ErrMuxMisuse)
	}
	r := m.queue[0]
	m.queue = m.queue[1:]
	return r.id, append(buf[:0], r.resp...), r.err
}

func (m *memLink) Close() error {
	m.closed = true
	return nil
}

func TestFaultyIsDeterministicPerSeed(t *testing.T) {
	schedule := func(seed uint64) []bool {
		f := NewFaulty(&memLink{h: echoHandler}, FaultConfig{Seed: seed, DropBeforeSend: 0.4})
		out := make([]bool, 50)
		for i := range out {
			f.broken = false // score every roll, not just the first fault
			_, err := exchange(f, 0, []byte("x"))
			out[i] = err != nil
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d", i)
		}
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestFaultyDeterministic drives a depth-2 session over Faulty links with
// every fault kind enabled: the same seed and the same submit sequence give
// the same fault counts and the same outcomes, redials included.
func TestFaultyDeterministic(t *testing.T) {
	run := func() (FaultStats, []string) {
		eo := NewExactlyOnce(appending(echoHandler), nil)
		var faults []*Faulty
		p := NewPipelinedSession(func() (MuxLink, error) {
			f := NewFaulty(&memLink{h: eo.Handle}, FaultConfig{
				Seed:           uint64(100 + len(faults)),
				DropBeforeSend: 0.05, DropAfterSend: 0.05, Duplicate: 0.05,
				Reset: 0.05, Delay: 0.05, MaxDelay: 50 * time.Microsecond,
			})
			faults = append(faults, f)
			return f, nil
		}, 2)
		p.MaxRetries, p.Backoff = 20, 0
		var outcomes []string
		for i := 0; i < 120; i++ {
			if err := p.Submit(1, []byte(fmt.Sprintf("m%03d", i))); err != nil {
				t.Fatal(err)
			}
			if p.InFlight() == 2 || i == 119 {
				for p.InFlight() > 0 {
					resp, err := p.Await()
					outcomes = append(outcomes, fmt.Sprintf("%q %v", resp, err))
				}
			}
		}
		var sum FaultStats
		for _, f := range faults {
			s := f.Stats()
			sum.DropsBefore += s.DropsBefore
			sum.DropsAfter += s.DropsAfter
			sum.Duplicates += s.Duplicates
			sum.Resets += s.Resets
			sum.Delays += s.Delays
		}
		return sum, outcomes
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 {
		t.Fatalf("fault counts differ under one seed: %+v vs %+v", s1, s2)
	}
	if s1.DropsBefore == 0 || s1.DropsAfter == 0 || s1.Duplicates == 0 || s1.Resets == 0 || s1.Delays == 0 {
		t.Fatalf("schedule missed a fault kind: %+v", s1)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d differs under one seed: %s vs %s", i, o1[i], o2[i])
		}
	}
}

func TestFaultyDropBeforeSendNeverReachesServer(t *testing.T) {
	inner := &memLink{h: echoHandler}
	f := NewFaulty(inner, FaultConfig{Seed: 1, DropBeforeSend: 1})
	if _, err := exchange(f, 0, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v", err)
	}
	if inner.submits != 0 {
		t.Fatal("drop-before-send must not deliver the request")
	}
	if f.Stats().DropsBefore == 0 {
		t.Fatal("drop not counted")
	}
}

func TestFaultyTornResponseDeliversButFails(t *testing.T) {
	inner := &memLink{h: echoHandler}
	f := NewFaulty(inner, FaultConfig{Seed: 1, DropAfterSend: 1})
	if _, err := exchange(f, 0, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v", err)
	}
	if inner.submits != 1 {
		t.Fatalf("torn response must deliver exactly once, delivered %d", inner.submits)
	}
	// The stream is unusable after the tear: nothing more is written.
	if _, err := exchange(f, 0, []byte("y")); !errors.Is(err, ErrInjected) || inner.submits != 1 {
		t.Fatalf("frame after a tear: err %v, %d deliveries", err, inner.submits)
	}
}

func TestFaultyDuplicateDeliversTwice(t *testing.T) {
	inner := &memLink{h: echoHandler}
	f := NewFaulty(inner, FaultConfig{Seed: 1, Duplicate: 1})
	resp, err := exchange(f, 2, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "\x02x" {
		t.Fatalf("resp %q", resp)
	}
	if inner.submits != 2 {
		t.Fatalf("duplicate must deliver twice, delivered %d", inner.submits)
	}
}

func TestFaultyResetBreaksConnection(t *testing.T) {
	inner := &memLink{h: echoHandler}
	f := NewFaulty(inner, FaultConfig{Seed: 1, Reset: 1})
	if _, err := exchange(f, 0, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v", err)
	}
	if !inner.closed {
		t.Fatal("reset must close the underlying connection")
	}
	// Later frames fail like a dead socket.
	if _, err := exchange(f, 0, []byte("y")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v", err)
	}
	if inner.submits != 0 {
		t.Fatal("reset connection must not deliver")
	}
}

func TestFaultyDelayDelays(t *testing.T) {
	inner := &memLink{h: echoHandler}
	f := NewFaulty(inner, FaultConfig{Seed: 3, Delay: 1, MaxDelay: 5 * time.Millisecond})
	for i := 0; i < 5; i++ {
		if _, err := exchange(f, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().Delays == 0 {
		t.Fatal("delays not injected")
	}
	if inner.submits != 5 {
		t.Fatalf("delay must still deliver, delivered %d", inner.submits)
	}
}

func TestFaultyCleanPassthrough(t *testing.T) {
	f := NewFaulty(&memLink{h: echoHandler}, FaultConfig{Seed: 1}) // all probabilities zero
	for i := 0; i < 20; i++ {
		resp, err := exchange(f, 1, []byte("ok"))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "\x01ok" {
			t.Fatalf("resp %q", resp)
		}
	}
	if s := f.Stats(); s != (FaultStats{}) {
		t.Fatalf("faults injected with zero probabilities: %+v", s)
	}
}

// One fault kind at a time, at depth 2, against a real ExactlyOnce server
// over TCP: every logical exchange resolves with its own response, the
// handler runs exactly once per frame of every session, and the server's
// replay and hello counts agree with what was injected.
func TestFaultyKindsAtDepthTwo(t *testing.T) {
	const rounds = 40
	for _, tc := range []struct {
		name  string
		cfg   FaultConfig
		agree func(f FaultStats, replays uint64, rejoins int) bool
	}{
		// A lost request never executed, and a drop leaves the frames ahead
		// of it answered: nothing is ever replayed.
		{"drop_before", FaultConfig{DropBeforeSend: 0.15}, func(f FaultStats, r uint64, _ int) bool {
			return f.DropsBefore > 0 && r == 0
		}},
		// A torn frame executed, so its replay hits the cache; the frame
		// behind it in the window may have too.
		{"torn", FaultConfig{DropAfterSend: 0.15}, func(f FaultStats, r uint64, _ int) bool {
			return f.DropsAfter > 0 && r >= f.DropsAfter && r <= 2*f.DropsAfter
		}},
		// The second copy of every duplicate, and nothing else.
		{"duplicate", FaultConfig{Duplicate: 0.15}, func(f FaultStats, r uint64, _ int) bool {
			return f.Duplicates > 0 && r == f.Duplicates
		}},
		// A reset loses at most the one written frame ahead of it.
		{"reset", FaultConfig{Reset: 0.15}, func(f FaultStats, r uint64, _ int) bool {
			return f.Resets > 0 && r <= f.Resets
		}},
		{"delay", FaultConfig{Delay: 0.3, MaxDelay: time.Millisecond}, func(f FaultStats, r uint64, _ int) bool {
			return f.Delays > 0 && r == 0
		}},
		// Each observed restart ends one session, which rejoins.
		{"server_restart", FaultConfig{ServerRestart: 0.1}, func(f FaultStats, _ uint64, rejoins int) bool {
			return f.ServerRestarts > 0 && rejoins > 0 && uint64(rejoins) <= f.ServerRestarts
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &countingHandler{}
			eo, addr := sessionServer(t, h.handle)
			restart := &RestartState{}
			var faults []*Faulty
			newSession := func() *PipelinedSession {
				p := NewPipelinedSession(func() (MuxLink, error) {
					c, err := DialMux(addr)
					if err != nil {
						return nil, err
					}
					cfg := tc.cfg
					cfg.Seed = uint64(len(faults) + 1)
					cfg.Restart = restart
					faults = append(faults, NewFaulty(c, cfg))
					return faults[len(faults)-1], nil
				}, 2)
				p.MaxRetries, p.Backoff = 30, 100*time.Microsecond
				return p
			}
			p := newSession()
			rejoins, next, done := 0, 0, 0
			for done < rounds {
				if next < rounds && p.InFlight() < 2 {
					if err := p.Submit(1, []byte(fmt.Sprintf("m%02d", next))); err != nil {
						t.Fatalf("submit %d: %v", next, err)
					}
					next++
					continue
				}
				resp, err := p.Await()
				if errors.Is(err, ErrServerRestarted) {
					// The incarnation is over: rejoin and send everything
					// not yet acknowledged again.
					p.Close()
					p, next = newSession(), done
					rejoins++
					continue
				}
				if err != nil {
					t.Fatalf("round %d: %v", done, err)
				}
				if want := fmt.Sprintf("w1:m%02d", done); string(resp) != want {
					t.Fatalf("round %d: resp %q, want %q", done, resp, want)
				}
				done++
			}
			p.Close()

			var f FaultStats
			for _, l := range faults {
				s := l.Stats()
				f.DropsBefore += s.DropsBefore
				f.DropsAfter += s.DropsAfter
				f.Duplicates += s.Duplicates
				f.Resets += s.Resets
				f.Delays += s.Delays
				f.ServerRestarts += s.ServerRestarts
			}
			st := eo.Stats()
			calls := h.count()
			if st.Exchanges != uint64(calls) || st.Hellos != uint64(1+rejoins) {
				t.Fatalf("server %+v ran the handler %d times with %d rejoins", st, calls, rejoins)
			}
			if calls < rounds || calls > rounds+2*rejoins {
				t.Fatalf("handler ran %d times for %d exchanges and %d rejoins", calls, rounds, rejoins)
			}
			if rejoins == 0 {
				h.mu.Lock()
				for i, call := range h.calls {
					if want := fmt.Sprintf("m%02d", i); call != want {
						t.Fatalf("call %d was %q, want %q — ordering broken", i, call, want)
					}
				}
				h.mu.Unlock()
			}
			if !tc.agree(f, st.Replays, rejoins) {
				t.Fatalf("injected %+v, server %+v, %d rejoins: the counts disagree", f, st, rejoins)
			}
		})
	}
}

// Stats snapshots the injected-fault counters.
func (f *Faulty) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
