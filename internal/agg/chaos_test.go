package agg

import (
	"sync"
	"testing"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// Chaos suite: crash the tier's processes mid-run and prove the Eq. 5
// fixpoint still holds bitwise afterwards.
//
// Loss accounting uses probe pushes: worker k's push s carries the single
// coordinate k·P+s with value 1, so every coordinate of the final upstream
// model is owned by exactly one push. The server applies pushes with sign
// −1 (descent), so a value of −1 means that push applied exactly once, 0
// means it died with its incarnation, and anything else — −2 from a replay
// the cache failed to deduplicate, a fraction from a torn merge — is a
// correctness bug the bitwise replica checks alone could miss (replicas
// track M whether or not M itself is right).

// probe builds worker k's s-th single-coordinate unit push.
func probe(k, s, pushes int) sparse.Update {
	return sparse.Update{Chunks: []sparse.Chunk{{
		Layer: 0,
		Idx:   []int32{int32(k*pushes + s)},
		Val:   []float32{1},
	}}}
}

// chaosWorker is a scripted resilient worker: any exchange failure kills the
// incarnation — zero the replica, redial a fresh session client, move on.
// The failed push is NOT retried: its fate is ambiguous (the window may have
// committed upstream before the crash), and retrying as a new incarnation
// would risk double-apply. That is the production loop's accepted loss; the
// resync hello rebuilds the replica from whatever state did survive.
type chaosWorker struct {
	id      int
	dial    func() transport.Transport
	tr      transport.Transport
	replica [][]float32
	down    sparse.Update
	rejoins int
}

func newChaosWorker(id int, sizes []int, dial func() transport.Transport) *chaosWorker {
	return &chaosWorker{id: id, dial: dial, tr: dial(), replica: alloc(sizes)}
}

func (c *chaosWorker) redial() {
	c.tr.Close()
	for _, l := range c.replica {
		for j := range l {
			l[j] = 0
		}
	}
	c.tr = c.dial()
	c.rejoins++
}

// push sends one update; on success the downward diff lands in the replica.
// On any error the worker rejoins as a fresh incarnation and reports the
// push as not acknowledged.
func (c *chaosWorker) push(u *sparse.Update) (nnz int, acked bool) {
	resp, err := c.tr.Exchange(c.id, sparse.Encode(u))
	if err != nil {
		c.redial()
		return 0, false
	}
	if err := sparse.DecodeAnyInto(&c.down, resp); err != nil {
		c.redial()
		return 0, false
	}
	applyUpdate(&c.down, c.replica)
	return c.down.NNZ(), true
}

// drainChaos pushes empties from every worker until three consecutive
// error-free all-empty rounds prove both tiers fixed. Errors (a worker still
// straddling a crash) reset the stability count.
func drainChaos(t *testing.T, workers []*chaosWorker, maxRounds int) {
	t.Helper()
	for r, stable := 0, 0; stable < 3; r++ {
		if r >= maxRounds {
			t.Fatalf("fleet not drained after %d rounds", maxRounds)
		}
		total, clean := 0, true
		for _, c := range workers {
			var empty sparse.Update
			n, ok := c.push(&empty)
			total += n
			clean = clean && ok
		}
		if clean && total == 0 {
			stable++
		} else {
			stable = 0
		}
	}
}

// requireProbeLedger checks the final model against the probe accounting:
// every coordinate applied exactly once or not at all, and every
// acknowledged push is present.
func requireProbeLedger(t *testing.T, m []float32, acked [][]bool, pushes int) {
	t.Helper()
	for k := range acked {
		for s := 0; s < pushes; s++ {
			v := m[k*pushes+s]
			if v != 0 && v != -1 {
				t.Fatalf("push (worker %d, step %d) landed as %v, want -1 (once) or 0 (lost)", k, s, v)
			}
			if acked[k][s] && v != -1 {
				t.Fatalf("acknowledged push (worker %d, step %d) missing from the model", k, s)
			}
		}
	}
}

// An aggregator crashes mid-window and a replacement takes over its address.
// Workers ride session redials + fresh-incarnation rejoins through the
// crash; afterwards the probe ledger shows no acknowledged push lost,
// no push double-applied, and every replica equals the upstream model
// bitwise.
func TestChaosAggregatorCrashMidWindow(t *testing.T) {
	const workers, pushes = 4, 12
	sizes := []int{workers * pushes}
	up, srvUp := startUpstream(t, ps.Config{LayerSizes: sizes, Workers: 1})

	cfg := Config{
		LayerSizes: sizes, MaxWorkers: workers,
		Window: workers, WindowWait: 2 * time.Millisecond, Depth: 2,
		UpstreamWorker: 0, Dial: dialUp(srvUp.Addr()),
		MaxRetries: 2, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	}
	a1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis1, err := transport.ListenTCP("127.0.0.1:0", a1.Handler())
	if err != nil {
		t.Fatal(err)
	}

	// Workers dial "the aggregator's address" through an indirection so the
	// replacement can take over without the fleet reconfiguring.
	var addrMu sync.Mutex
	addr := lis1.Addr()
	dialWorker := func() transport.Transport {
		p := transport.NewPipelinedSession(func() (transport.MuxLink, error) {
			addrMu.Lock()
			a := addr
			addrMu.Unlock()
			return transport.DialMux(a)
		}, 1)
		p.MaxRetries = 8
		p.Backoff = 2 * time.Millisecond
		p.MaxBackoff = 20 * time.Millisecond
		return p
	}

	fleet := make([]*chaosWorker, workers)
	acked := make([][]bool, workers)
	for k := range fleet {
		fleet[k] = newChaosWorker(k, sizes, dialWorker)
		acked[k] = make([]bool, pushes)
	}

	var wg sync.WaitGroup
	for k, c := range fleet {
		wg.Add(1)
		go func(k int, c *chaosWorker) {
			defer wg.Done()
			for s := 0; s < pushes; s++ {
				u := probe(k, s, pushes)
				_, acked[k][s] = c.push(&u)
				time.Sleep(3 * time.Millisecond)
			}
		}(k, c)
	}

	// Crash the aggregator mid-script, mid-window, and bring up the
	// replacement on a new listener at "the same address".
	time.Sleep(15 * time.Millisecond)
	a1.Kill()
	lis1.Close()
	a2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	lis2, err := transport.ListenTCP("127.0.0.1:0", a2.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer lis2.Close()
	addrMu.Lock()
	addr = lis2.Addr()
	addrMu.Unlock()

	wg.Wait()
	drainChaos(t, fleet, 500)

	mUp := alloc(sizes)
	up.MSnapshot(mUp)
	requireProbeLedger(t, mUp[0], acked, pushes)
	for _, c := range fleet {
		requireBitwise(t, "post-crash replica vs upstream M", c.replica, mUp)
	}
	if st := a2.Sessions(); st.Hellos < workers {
		t.Fatalf("replacement adopted %d hellos, want at least %d rejoins", st.Hellos, workers)
	}
	total := 0
	for _, c := range fleet {
		total += c.rejoins
	}
	if total == 0 {
		t.Fatal("crash disturbed no worker: the test exercised nothing")
	}
}

// The upstream server dies and restarts empty. The aggregator's Await error
// must route through recover(): fail the in-flight windows, pair a fresh
// mirror with the fresh upstream incarnation, and fence every worker through
// re-hello. Afterwards the mirror equals the new upstream's v_agg and M
// bitwise — the assertion that catches a stale mirror double-applying its
// old model.
func TestChaosUpstreamRestartRebuildsMirror(t *testing.T) {
	const workers, pushes = 3, 10
	sizes := []int{workers * pushes}

	newUpstream := func() (*ps.Server, *transport.TCPServer) {
		return startUpstream(t, ps.Config{LayerSizes: sizes, Workers: 1})
	}
	_, srv1 := newUpstream()
	var upMu sync.Mutex
	upAddr := srv1.Addr()
	a, err := New(Config{
		LayerSizes: sizes, MaxWorkers: workers,
		Window: workers, WindowWait: time.Millisecond, Depth: 2,
		UpstreamWorker: 0,
		Dial: func() (transport.MuxLink, error) {
			upMu.Lock()
			addr := upAddr
			upMu.Unlock()
			return transport.DialMux(addr)
		},
		MaxRetries: 3, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	lis, err := transport.ListenTCP("127.0.0.1:0", a.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	dialWorker := func() transport.Transport { return dialAgg(lis.Addr()) }
	fleet := make([]*chaosWorker, workers)
	for k := range fleet {
		fleet[k] = newChaosWorker(k, sizes, dialWorker)
	}

	script := func(from, to int) {
		var wg sync.WaitGroup
		for k, c := range fleet {
			wg.Add(1)
			go func(k int, c *chaosWorker) {
				defer wg.Done()
				for s := from; s < to; s++ {
					u := probe(k, s, pushes)
					c.push(&u)
					time.Sleep(time.Millisecond)
				}
			}(k, c)
		}
		wg.Wait()
	}

	script(0, pushes/2)

	// Kill the upstream; everything it absorbed is gone (no checkpoint). A
	// fresh empty server takes over the upstream role.
	srv1.Close()
	up2, srv2 := newUpstream()
	upMu.Lock()
	upAddr = srv2.Addr()
	upMu.Unlock()

	script(pushes/2, pushes)
	drainChaos(t, fleet, 500)

	if st := a.Stats(); st.UpstreamResets < 1 {
		t.Fatalf("stats %+v: upstream restart did not trigger recover()", st)
	}
	mUp := alloc(sizes)
	up2.MSnapshot(mUp)
	// The restart forgot the first half; exactly-once still holds for what
	// the new upstream absorbed.
	for k := range fleet {
		for s := 0; s < pushes; s++ {
			if v := mUp[0][k*pushes+s]; v != 0 && v != -1 {
				t.Fatalf("push (worker %d, step %d) landed as %v across restart, want -1 or 0", k, s, v)
			}
		}
	}
	mMirror, vAgg := alloc(sizes), alloc(sizes)
	a.Mirror().MSnapshot(mMirror)
	up2.VSnapshot(0, vAgg)
	requireBitwise(t, "post-restart mirror vs upstream v_agg", mMirror, vAgg)
	requireBitwise(t, "post-restart mirror vs upstream M", mMirror, mUp)
	for _, c := range fleet {
		requireBitwise(t, "post-restart replica vs upstream M", c.replica, mUp)
	}
}

// Race stress: two aggregators, concurrent pushes, and deliberate
// incarnation churn (workers redialling mid-run) while monitors hammer the
// stats surfaces. Run under -race in CI's crash-recovery job; the
// correctness bar is the usual post-drain bitwise fixpoint.
func TestChaosAggStress(t *testing.T) {
	sizes := []int{777, 130}
	const workersPerAgg, aggs, pushes = 4, 2, 25
	up, srv := startUpstream(t, ps.Config{LayerSizes: sizes, Workers: aggs})

	var tier []*Aggregator
	var fleet []*chaosWorker
	for ai := 0; ai < aggs; ai++ {
		a, err := New(Config{
			LayerSizes: sizes, MaxWorkers: workersPerAgg,
			Window: workersPerAgg, WindowWait: 200 * time.Microsecond,
			Depth: 2, UpstreamWorker: ai, Dial: dialUp(srv.Addr()),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		tier = append(tier, a)
		lis, err := transport.ListenTCP("127.0.0.1:0", a.Handler())
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		dial := func() transport.Transport { return dialAgg(lis.Addr()) }
		for k := 0; k < workersPerAgg; k++ {
			fleet = append(fleet, newChaosWorker(k, sizes, dial))
		}
	}

	stop := make(chan struct{})
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, a := range tier {
				_ = a.Stats()
				_ = a.Sessions()
				_ = a.GateStats()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i, c := range fleet {
		wg.Add(1)
		go func(i int, c *chaosWorker) {
			defer wg.Done()
			rng := tensor.NewRNG(7000 + uint64(i))
			for s := 0; s < pushes; s++ {
				if s > 0 && s%8 == 0 {
					// Voluntary incarnation churn: hello → resync under load.
					c.redial()
				}
				g := randUpdate(rng, sizes, 0.25)
				if _, ok := c.push(&g); !ok {
					t.Errorf("worker %d push %d failed with a healthy tier", i, s)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	close(stop)
	mon.Wait()
	if t.Failed() {
		t.FailNow()
	}

	drainChaos(t, fleet, 500)
	mUp := alloc(sizes)
	up.MSnapshot(mUp)
	for ai, a := range tier {
		mMirror, vAgg := alloc(sizes), alloc(sizes)
		a.Mirror().MSnapshot(mMirror)
		up.VSnapshot(ai, vAgg)
		requireBitwise(t, "stress mirror vs upstream v_agg", mMirror, vAgg)
	}
	for _, c := range fleet {
		requireBitwise(t, "stress replica vs upstream M", c.replica, mUp)
	}
}
