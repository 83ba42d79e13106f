package trainer

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/stats"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// chaosFaults is the fault mix used by the chaos harness: lost requests,
// torn responses, duplicated deliveries, connection resets, and jitter.
func chaosFaults(seed uint64) transport.FaultConfig {
	return transport.FaultConfig{
		Seed:           seed,
		DropBeforeSend: 0.04,
		DropAfterSend:  0.04,
		Duplicate:      0.04,
		Reset:          0.02,
		Delay:          0.05,
		MaxDelay:       time.Millisecond,
	}
}

// fleet dials worker sessions through the production stack (NewDialStack;
// with opts.Faults set, every link is a seeded Faulty) and remembers each
// worker's latest session, kept open past its training loop, so a test can
// drain the worker through the incarnation that finished: a fresh
// session's hello would resync v_k and make v_k == M hold trivially.
type fleet struct {
	opts  DialOptions
	seeds atomic.Uint64
	mu    sync.Mutex
	last  map[int]transport.Pipeliner
}

func newFleet(opts DialOptions) *fleet {
	return &fleet{opts: opts, last: map[int]transport.Pipeliner{}}
}

// chaosFleet is the fleet of the chaos harness: chaosFaults on every link,
// a generous redial budget and a per-exchange deadline.
func chaosFleet(addr string, depth int) *fleet {
	faults := chaosFaults(0)
	return newFleet(DialOptions{
		Addr: addr, Pipeline: depth, Faults: &faults, Timeout: 10 * time.Second,
		Retries: 40, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
	})
}

// session dials a fresh session for worker id and records it as the
// worker's latest. Faulty links draw a fresh seed per session.
func (f *fleet) session(id int) transport.Pipeliner {
	opts := f.opts
	if opts.Faults != nil {
		fc := *opts.Faults
		fc.Seed = f.seeds.Add(1000)
		opts.Faults = &fc
	}
	tr, err := NewDialStack(opts)()
	if err != nil {
		panic(err) // sessions dial lazily: building one cannot fail
	}
	f.mu.Lock()
	f.last[id] = tr.(transport.Pipeliner)
	f.mu.Unlock()
	return tr.(transport.Pipeliner)
}

// dialer is worker id's dial for RunResilientWorkerLoop. With crashAfter >=
// 0 the first incarnation dies after that many submits (a worker crash
// mid-training); the loop rejoins as a fresh one.
func (f *fleet) dialer(id, crashAfter int) func() (transport.Transport, error) {
	return func() (transport.Transport, error) {
		s := f.session(id)
		if crashAfter >= 0 {
			ks := &killswitch{Pipeliner: s, remaining: crashAfter}
			crashAfter = -1
			return ks, nil
		}
		return keepOpen{s}, nil
	}
}

// drain exchanges empty pushes on worker k's latest session until the
// server has no difference left for it, decoding with the strict raw
// decoder (drains are always answered raw).
func (f *fleet) drain(t *testing.T, k int) {
	t.Helper()
	f.mu.Lock()
	s := f.last[k]
	f.mu.Unlock()
	empty := sparse.Encode(&sparse.Update{})
	for i := 1; i <= 64; i++ {
		resp, err := s.Exchange(k, empty)
		if err != nil {
			t.Fatalf("drain worker %d: %v", k, err)
		}
		G, err := sparse.Decode(resp)
		if err != nil {
			t.Fatalf("drain worker %d decode: %v", k, err)
		}
		if G.NNZ() == 0 {
			return
		}
	}
	t.Fatalf("worker %d difference did not drain", k)
}

func (f *fleet) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.last {
		s.Close()
	}
}

// requireDrainedFixpoint drains every worker through its latest session and
// checks Eq. 5 bitwise: each worker's sent-accumulation v_k equals the
// update accumulation M. A lost or double-applied frame anywhere in the run
// would leave a worker's v_k permanently out of step with what it was
// actually sent.
func requireDrainedFixpoint(t *testing.T, f *fleet, server *ps.Server, sizes []int, workers int) {
	t.Helper()
	for k := 0; k < workers; k++ {
		f.drain(t, k)
	}
	m, v := snapshotBuffer(sizes), snapshotBuffer(sizes)
	server.MSnapshot(m)
	for k := 0; k < workers; k++ {
		server.VSnapshot(k, v)
		for layer := range m {
			for j := range m[layer] {
				if v[layer][j] != m[layer][j] {
					t.Fatalf("worker %d: v[%d][%d]=%v != M=%v — exchange state diverged", k, layer, j, v[layer][j], m[layer][j])
				}
			}
		}
	}
}

// keepOpen leaves the session open when the worker loop is done with it,
// for the drain.
type keepOpen struct{ transport.Pipeliner }

func (keepOpen) Close() error { return nil }

// killswitch crashes its worker: once the submit budget runs out every
// submit fails, so the incarnation dies like a killed process.
type killswitch struct {
	transport.Pipeliner
	remaining int
}

func (k *killswitch) Submit(worker int, payload []byte) error {
	if k.remaining--; k.remaining < 0 {
		return errors.New("chaos: worker crashed")
	}
	return k.Pipeliner.Submit(worker, payload)
}

// runChaos trains cfg.Workers workers through f against the server at its
// address, worker 3 crashing after 40 submits and rejoining, and returns
// their results.
func runChaos(t *testing.T, cfg Config, f *fleet) []*Result {
	t.Helper()
	var wg sync.WaitGroup
	results := make([]*Result, cfg.Workers)
	errs := make([]error, cfg.Workers)
	for id := 0; id < cfg.Workers; id++ {
		crashAfter := -1
		if id == 3 {
			crashAfter = 40
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = RunResilientWorkerLoop(cfg, id, f.dialer(id, crashAfter), 3)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	return results
}

// The chaos harness: 4 workers train over real TCP while the transport
// injects drops, torn responses, duplicates, resets and delays, and worker
// 3 crashes mid-training and rejoins as a fresh incarnation. Training must
// complete, converge, and leave the server satisfying the model-difference
// invariant (v_k == M for every worker after drain).
func TestChaosTrainingSurvivesFaultsExactlyOnce(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	sizes := proto.LayerSizes()
	server := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 4})
	eo := ExactlyOnceHandler(server)
	srv, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetExchangeTimeout(20 * time.Second)
	defer srv.Close()

	f := chaosFleet(srv.Addr(), 1)
	defer f.close()
	// Worker 3 crashes mid-training; the resilient loop rejoins it as a new
	// incarnation (hello → server resync → dense snapshot onto a fresh
	// replica).
	results := runChaos(t, cfg, f)

	// Convergence despite the chaos: worker 0 syncs with the server and
	// evaluates at the end of its loop.
	if acc := results[0].FinalAccuracy; acc < 0.6 {
		t.Fatalf("final accuracy %.3f under chaos; training diverged", acc)
	}

	// The faults actually happened and were absorbed by the protocol.
	ss := eo.Stats()
	if ss.Replays == 0 {
		t.Fatal("no replays recorded — the fault schedule never exercised the replay cache")
	}
	if ss.Hellos < 5 {
		t.Fatalf("%d hellos; want ≥5 (4 workers + ≥1 rejoin)", ss.Hellos)
	}
	if st := server.Stats(); st.Resyncs != ss.Hellos {
		t.Fatalf("resyncs %d != incarnations %d", st.Resyncs, ss.Hellos)
	}

	// Model-difference invariant (Eq. 5; without secondary compression
	// nothing may be left implicit).
	requireDrainedFixpoint(t, f, server, sizes, 4)
}

// The same chaos harness at PipelineDepth 2: the faults now land on a link
// with a second exchange in flight behind the one that failed, and the
// session replays the whole window. The exactly-once guarantees and the
// Eq. 5 invariant must hold unchanged, and training must still converge.
func TestChaosTrainingSurvivesFaultsPipelined(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	cfg.PipelineDepth = 2
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	sizes := proto.LayerSizes()
	server := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 4})
	eo := ExactlyOnceHandler(server)
	srv, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetExchangeTimeout(20 * time.Second)
	defer srv.Close()

	f := chaosFleet(srv.Addr(), 2)
	defer f.close()
	results := runChaos(t, cfg, f) // worker 3 crashes with exchanges in flight

	if acc := results[0].FinalAccuracy; acc < 0.6 {
		t.Fatalf("final accuracy %.3f under chaos at depth 2; training diverged", acc)
	}
	ss := eo.Stats()
	if ss.Replays == 0 {
		t.Fatal("no replays recorded — the fault schedule never exercised the replay cache")
	}
	if ss.Hellos < 5 {
		t.Fatalf("%d hellos; want ≥5 (4 workers + ≥1 rejoin)", ss.Hellos)
	}
	if st := server.Stats(); st.Resyncs != ss.Hellos {
		t.Fatalf("resyncs %d != incarnations %d", st.Resyncs, ss.Hellos)
	}

	requireDrainedFixpoint(t, f, server, sizes, 4)
}

func snapshotBuffer(sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i] = make([]float32, n)
	}
	return out
}

// Worker-side half of the Eq. 5 invariant: after training over a faulty
// link and draining, the worker's replica must equal θ0 + v_k — the server
// and the worker agree on every coordinate of what was exchanged.
func TestChaosWorkerReplicaMatchesServerState(t *testing.T) {
	cfg := quickConfig(DGS, 1)
	if err := cfg.normalise(); err != nil {
		t.Fatal(err)
	}
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	sizes := proto.LayerSizes()
	server := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 1})
	eo := ExactlyOnceHandler(server)
	srv, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f := chaosFleet(srv.Addr(), 1)
	defer f.close()
	tr := f.session(0)

	var iterCounter, computeNanos atomic.Int64
	res := &Result{
		Loss:     stats.NewSeries("chaos-loss"),
		Accuracy: stats.NewSeries("chaos-acc"),
	}
	lr := newSchedule(&cfg, 150)
	w := worker{
		cfg: &cfg, id: 0, sizes: sizes, tr: tr,
		totalIters: 150, samplesPerEpoch: float64(cfg.Dataset.NumTrain()),
		iterCounter: &iterCounter, computeNanos: &computeNanos,
		lr: lr, res: res,
	}
	model, err := w.run()
	if err != nil {
		t.Fatal(err)
	}
	// Drain the remaining difference through the same session, applying it
	// to the replica like the training loop does.
	if err := syncModel(tr, 0, model); err != nil {
		t.Fatal(err)
	}

	v := snapshotBuffer(sizes)
	server.VSnapshot(0, v)
	theta0 := cfg.BuildModel(tensor.NewRNG(cfg.Seed)).Params()
	params := model.Params()
	for layer := range v {
		for j := range v[layer] {
			want := theta0[layer].Value.Data[j] + v[layer][j]
			got := params[layer].Value.Data[j]
			diff := float64(want - got)
			tol := 1e-3 + 1e-3*math.Abs(float64(want))
			if math.Abs(diff) > tol {
				t.Fatalf("layer %d coord %d: replica %v vs θ0+v_k %v (Δ %v) — worker and server state diverged",
					layer, j, got, want, diff)
			}
		}
	}
}

// The acceptance-criteria replay-cache proof against the real parameter
// server: a push whose response is torn gets retried over the wire, and the
// server applies it to M exactly once.
func TestRetriedPushAppliedExactlyOnce(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{4}, Workers: 1})
	eo := ExactlyOnceHandler(server)
	srv, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	torn := &tearNth{tearAt: 2} // tear the push, not the hello
	sc := transport.NewPipelinedSession(func() (transport.MuxLink, error) {
		c, err := transport.DialMux(srv.Addr())
		return &tornLink{MuxLink: c, n: torn}, err
	}, 1)
	sc.Backoff = time.Millisecond
	defer sc.Close()

	// Hello/join exchange (delivery 1).
	if _, err := sc.Exchange(0, sparse.Encode(&sparse.Update{})); err != nil {
		t.Fatal(err)
	}
	// The push (delivery 2): its response is torn, forcing a wire retry.
	g := sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{1}, Val: []float32{2}}}}
	resp, err := sc.Exchange(0, sparse.Encode(&g))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sparse.Decode(resp); err != nil {
		t.Fatal(err)
	}
	if torn.recvs < 3 {
		t.Fatalf("only %d wire deliveries; the tear did not force a retry", torn.recvs)
	}
	if st := eo.Stats(); st.Replays != 1 {
		t.Fatalf("session stats %+v, want exactly one replay", st)
	}
	// M must reflect ONE application of g: M = −g, not −2g.
	m := [][]float32{make([]float32, 4)}
	server.MSnapshot(m)
	if m[0][1] != -2 {
		t.Fatalf("M[1] = %v after a retried push of 2, want -2 (exactly once)", m[0][1])
	}
	if st := server.Stats(); st.Pushes != 2 {
		t.Fatalf("server saw %d pushes (hello + push), want 2", st.Pushes)
	}
}

// tearNth counts responses across every link it wraps and loses the
// tearAt-th one after it was read.
type tearNth struct{ recvs, tearAt int }

type tornLink struct {
	transport.MuxLink
	n *tearNth
}

func (l *tornLink) Recv(buf []byte) (uint64, []byte, error) {
	id, resp, err := l.MuxLink.Recv(buf)
	if err != nil {
		return id, resp, err
	}
	if l.n.recvs++; l.n.recvs == l.n.tearAt {
		return 0, resp, fmt.Errorf("torn response (delivery %d)", l.n.recvs)
	}
	return id, resp, nil
}
