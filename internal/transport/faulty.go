package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks a failure produced by the Faulty decorator. It models a
// network fault (not a server rejection), so the session treats it exactly
// like a real connection error.
var ErrInjected = errors.New("transport: injected fault")

// FaultConfig parameterises a Faulty decorator. All probabilities are rolled
// independently per submitted frame from one seeded generator, so a given
// (seed, submit sequence) produces the same fault schedule on every run.
type FaultConfig struct {
	// Seed drives the fault schedule deterministically.
	Seed uint64
	// DropBeforeSend is the probability a request is lost before it leaves
	// the client — the server never sees it, and the link breaks there.
	DropBeforeSend float64
	// DropAfterSend is the probability the request is delivered and
	// processed but the response is lost (torn response) — the dangerous
	// asymmetric failure the replay cache exists for.
	DropAfterSend float64
	// Duplicate is the probability the request is written twice (the
	// second delivery must hit the server's replay cache).
	Duplicate float64
	// Reset is the probability the underlying connection is closed instead
	// of writing the request, forcing the session's redial-and-replay.
	Reset float64
	// Delay is the probability a request is delayed by a uniform random
	// duration up to MaxDelay (jitter; stresses staleness and deadlines).
	Delay    float64
	MaxDelay time.Duration
	// ServerRestart is the probability the server "restarts" under this
	// request: the connection resets (like Reset) and every later response
	// through any Faulty sharing the same Restart state carries a skewed
	// server incarnation id, so session clients observe exactly what a real
	// process replacement looks like on the wire — a dropped connection
	// followed by an unfamiliar incarnation — and must take the
	// ErrServerRestarted → re-hello path. The underlying server never
	// actually loses state, which is precisely the point: its session table
	// treats the re-hello as a no-op, so the test isolates the client-side
	// recovery machinery.
	ServerRestart float64
	// Restart shares the simulated incarnation skew among the Faulty
	// decorators of one logical cluster (every worker must see the same
	// "restart"). Nil with ServerRestart > 0 gets a private state, which is
	// only right for single-client tests.
	Restart *RestartState
}

// RestartState carries the cumulative incarnation skew of simulated server
// restarts. Share one instance across all Faulty decorators pointing at the
// same server.
type RestartState struct {
	skew     atomic.Uint64
	restarts atomic.Uint64
}

func (s *RestartState) fire(delta uint64) {
	s.skew.Add(delta)
	s.restarts.Add(1)
}

// FaultStats counts injected faults by kind.
type FaultStats struct {
	DropsBefore, DropsAfter, Duplicates, Resets, Delays, ServerRestarts uint64
}

// Faulty decorates a MuxLink with seeded, deterministic faults. Place it
// under the session (PipelinedSession's Dial returns a Faulty-wrapped
// MuxConn) so injected failures exercise the real recovery path: redial,
// replay of the window, server-side replay dedupe.
//
// A drop or reset breaks the link at that frame, the way a real connection
// failure does: nothing more is written on the link, and Recv fails once
// the faulted frame reaches the head of the window (a reset closes the
// socket, so earlier responses are lost too; after a drop they still
// arrive). A torn response is read, then lost, and breaks the link the same
// way. A duplicate is written twice; Recv discards the first response and
// returns the second under the id the session expects.
type Faulty struct {
	inner MuxLink

	mu    sync.Mutex // guards the schedule and stats against Stats readers
	cfg   FaultConfig
	rng   *rand.Rand
	stats FaultStats

	// Link state, owned by the session goroutine like the link itself.
	broken bool        // a fault broke the link: nothing more is written
	fates  []frameFate // one per submitted frame, oldest first
}

// frameFate is what Recv does when a submitted frame reaches the head.
type frameFate struct {
	id   uint64
	lost string // non-empty: never written; Recv fails with this cause
	dup  bool   // written twice: the first response is discarded
	torn bool   // the response is read, then lost
}

// NewFaulty wraps a link with a fault schedule.
func NewFaulty(inner MuxLink, cfg FaultConfig) *Faulty {
	if cfg.ServerRestart > 0 && cfg.Restart == nil {
		cfg.Restart = &RestartState{}
	}
	return &Faulty{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(int64(cfg.Seed)))}
}

// Submit implements MuxLink, possibly injecting one fault. Fault rolls
// happen in a fixed order (delay, reset, restart, drop-before, duplicate,
// drop-after) so the schedule is reproducible from the seed alone; a
// probability of zero draws nothing, so enabling a new fault kind does not
// shift the schedule of the others. A broken link rolls nothing.
func (f *Faulty) Submit(worker int, frame []byte) (uint64, error) {
	if f.broken {
		f.fates = append(f.fates, frameFate{lost: "link broken by an earlier fault"})
		return 0, nil
	}
	f.mu.Lock()
	var sleep time.Duration
	if f.roll(f.cfg.Delay) && f.cfg.MaxDelay > 0 {
		sleep = time.Duration(f.rng.Int63n(int64(f.cfg.MaxDelay)))
		f.stats.Delays++
		tmet.faultDelay.Inc()
	}
	reset := f.roll(f.cfg.Reset)
	restart := f.roll(f.cfg.ServerRestart)
	dropBefore := f.roll(f.cfg.DropBeforeSend)
	duplicate := f.roll(f.cfg.Duplicate)
	dropAfter := f.roll(f.cfg.DropAfterSend)
	var lost string // set when the request is never written
	dup, torn := false, false
	switch {
	case restart:
		// The restart subsumes a reset: same wire symptom, plus the skew.
		// The delta is drawn under f.mu so schedules stay seed-reproducible.
		f.stats.ServerRestarts++
		tmet.faultRestart.Inc()
		f.cfg.Restart.fire(uint64(f.rng.Int63()) | 1)
		lost = "server restarted (connection reset)"
	case reset:
		f.stats.Resets++
		tmet.faultReset.Inc()
		lost = "connection reset"
	case dropBefore:
		f.stats.DropsBefore++
		tmet.faultDropBefore.Inc()
		lost = "request dropped before send"
	case duplicate:
		f.stats.Duplicates++
		tmet.faultDuplicate.Inc()
		dup = true
	case dropAfter:
		f.stats.DropsAfter++
		tmet.faultDropAfter.Inc()
		torn = true
	}
	f.mu.Unlock()

	if sleep > 0 {
		time.Sleep(sleep)
	}
	if lost != "" {
		f.broken = true
		if restart || reset {
			f.inner.Close()
		}
		f.fates = append(f.fates, frameFate{lost: lost})
		return 0, nil
	}
	id, err := f.inner.Submit(worker, frame)
	if err == nil && dup {
		// Both copies carry the same envelope: the server must apply the
		// exchange once and answer the second from its replay cache.
		_, err = f.inner.Submit(worker, frame)
	}
	if err != nil {
		return 0, err
	}
	f.fates = append(f.fates, frameFate{id: id, dup: dup, torn: torn})
	return id, nil
}

// Recv implements MuxLink: it resolves the oldest submitted frame according
// to its fate.
func (f *Faulty) Recv(buf []byte) (uint64, []byte, error) {
	if len(f.fates) == 0 {
		return f.inner.Recv(buf) // misuse: the inner link reports it
	}
	fate := f.fates[0]
	f.fates = f.fates[:copy(f.fates, f.fates[1:])]
	if fate.lost != "" {
		return 0, buf, fmt.Errorf("%w: %s", ErrInjected, fate.lost)
	}
	if fate.dup {
		_, first, err := f.inner.Recv(buf)
		var srvErr *ServerError
		var ra *RetryAfterError
		if err != nil && !errors.As(err, &srvErr) && !errors.As(err, &ra) {
			return 0, first, err
		}
		buf = first
	}
	id, resp, err := f.inner.Recv(buf)
	if fate.torn {
		// The server processed the request; the client never sees the
		// response, and the stream is unusable from here.
		f.broken = true
		return 0, resp, fmt.Errorf("%w: response torn", ErrInjected)
	}
	if fate.dup {
		id = fate.id
	}
	if err == nil {
		if st := f.cfg.Restart; st != nil {
			if skew := st.skew.Load(); skew != 0 {
				// The client sees the post-"restart" server identity.
				patchSessionRespIncarnation(resp, skew)
			}
		}
	}
	return id, resp, err
}

// roll draws one Bernoulli sample; callers hold f.mu.
func (f *Faulty) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return f.rng.Float64() < p
}

// Close implements MuxLink.
func (f *Faulty) Close() error {
	f.broken = true
	return f.inner.Close()
}
