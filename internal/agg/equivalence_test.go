package agg

import (
	"sync"
	"testing"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// The equivalence suite: the aggregation tier must be invisible to the
// Eq. 5 invariant. After drain, every worker's replica equals the upstream
// model bitwise, and a scripted run through the tier matches the
// direct-connection run bitwise.

func alloc(sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i] = make([]float32, n)
	}
	return out
}

func randUpdate(rng *tensor.RNG, sizes []int, ratio float64) sparse.Update {
	dense := alloc(sizes)
	for _, l := range dense {
		rng.FillNormal(l, 0, 1)
	}
	return sparse.SparsifyLayers(dense, ratio)
}

func applyUpdate(u *sparse.Update, dst [][]float32) {
	for i := range u.Chunks {
		sparse.Scatter(&u.Chunks[i], dst[u.Chunks[i].Layer], 1)
	}
}

// startUpstream serves a ps.Server over real TCP with the production
// handler stack (codec-aware handler inside exactly-once sessions).
func startUpstream(t *testing.T, cfg ps.Config) (*ps.Server, *transport.TCPServer) {
	t.Helper()
	up := ps.NewServer(cfg)
	eo, err := trainer.ExactlyOnceHandlerWithCodec(up, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return up, srv
}

func dialUp(addr string) func() (transport.MuxLink, error) {
	return func() (transport.MuxLink, error) { return transport.DialMux(addr) }
}

// aggClient is a scripted worker attached to an aggregator through its own
// loopback TCP listener and a depth-1 session, the path production workers
// take.
type aggClient struct {
	tr      transport.Transport
	lis     *transport.TCPServer
	id      int
	replica [][]float32
	down    sparse.Update
}

func newAggClient(t *testing.T, a *Aggregator, id int, sizes []int) *aggClient {
	t.Helper()
	lis, err := transport.ListenTCP("127.0.0.1:0", a.Handler())
	if err != nil {
		t.Fatal(err)
	}
	c := &aggClient{tr: dialAgg(lis.Addr()), lis: lis, id: id, replica: alloc(sizes)}
	t.Cleanup(c.close)
	return c
}

// dialAgg starts a fresh worker session against an aggregator's address.
func dialAgg(addr string) transport.Transport {
	p := transport.NewPipelinedSession(dialUp(addr), 1)
	p.Backoff = time.Millisecond
	return p
}

func (c *aggClient) close() {
	c.tr.Close()
	c.lis.Close()
}

// push sends one update and applies the returned diff to the replica.
// It reports the diff's nnz (0 = drained) and any exchange error.
func (c *aggClient) push(u *sparse.Update) (int, error) {
	resp, err := c.tr.Exchange(c.id, sparse.Encode(u))
	if err != nil {
		return 0, err
	}
	if err := sparse.DecodeAnyInto(&c.down, resp); err != nil {
		return 0, err
	}
	applyUpdate(&c.down, c.replica)
	return c.down.NNZ(), nil
}

func (c *aggClient) drain(t *testing.T, maxRounds int) {
	t.Helper()
	var empty sparse.Update
	for r := 0; r < maxRounds; r++ {
		n, err := c.push(&empty)
		if err != nil {
			t.Fatalf("worker %d drain: %v", c.id, err)
		}
		if n == 0 {
			return
		}
	}
	t.Fatalf("worker %d not drained after %d rounds", c.id, maxRounds)
}

// drainAll pushes empties from every worker until a full round comes back
// empty for everyone, proving both tiers reached their fixpoints.
func drainAll(t *testing.T, clients []*aggClient, maxRounds int) {
	t.Helper()
	for r := 0; r < maxRounds; r++ {
		total := 0
		for _, c := range clients {
			var empty sparse.Update
			n, err := c.push(&empty)
			if err != nil {
				t.Fatalf("worker %d drain: %v", c.id, err)
			}
			total += n
		}
		if total == 0 {
			return
		}
	}
	t.Fatalf("fleet not drained after %d rounds", maxRounds)
}

func requireBitwise(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	for layer := range want {
		for j := range want[layer] {
			if got[layer][j] != want[layer][j] {
				t.Fatalf("%s: [%d][%d] = %v, want %v", what, layer, j, got[layer][j], want[layer][j])
			}
		}
	}
}

// Scripted sequential run, window size 1: every push travels alone, so the
// upstream must see exactly the same update sequence as a direct server —
// post-drain the two topologies' models and every worker replica must match
// bitwise.
func TestEquivalenceSequentialBitwise(t *testing.T) {
	sizes := []int{257, 64}
	const workers = 3
	up, srv := startUpstream(t, ps.Config{LayerSizes: sizes, Workers: 1})
	a, err := New(Config{
		LayerSizes: sizes, MaxWorkers: workers,
		Window: 1, Depth: 1, Dial: dialUp(srv.Addr()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	direct := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: workers})

	clients := make([]*aggClient, workers)
	for k := range clients {
		clients[k] = newAggClient(t, a, k, sizes)
	}
	directLocal := make([][][]float32, workers)
	for k := range directLocal {
		directLocal[k] = alloc(sizes)
	}

	rng := tensor.NewRNG(21)
	schedule := []int{0, 1, 2, 1, 0, 2, 2, 1, 0, 0}
	for _, k := range schedule {
		g := randUpdate(rng, sizes, 0.3)
		if _, err := clients[k].push(&g); err != nil {
			t.Fatalf("worker %d push: %v", k, err)
		}
		G, _ := direct.Push(k, &g)
		applyUpdate(&G, directLocal[k])
	}

	drainAll(t, clients, 200)
	for k := 0; k < workers; k++ {
		var empty sparse.Update
		for r := 0; ; r++ {
			G, _ := direct.Push(k, &empty)
			applyUpdate(&G, directLocal[k])
			if G.NNZ() == 0 {
				break
			}
			if r > 200 {
				t.Fatalf("direct worker %d not drained", k)
			}
		}
	}

	mUp, mDirect := alloc(sizes), alloc(sizes)
	up.MSnapshot(mUp)
	direct.MSnapshot(mDirect)
	requireBitwise(t, "upstream M vs direct M", mUp, mDirect)
	for k, c := range clients {
		requireBitwise(t, "agg worker replica vs upstream M", c.replica, mUp)
		requireBitwise(t, "agg replica vs direct replica", c.replica, directLocal[k])
	}
}

// One merged window must apply upstream exactly as the slot-ordered k-way
// merge of its contributions — proven by replaying the merge against a
// reference server and comparing models bitwise.
func TestEquivalenceMergedWindowBitwise(t *testing.T) {
	sizes := []int{1024}
	const workers = 4
	up, srv := startUpstream(t, ps.Config{LayerSizes: sizes, Workers: 1})
	a, err := New(Config{
		LayerSizes: sizes, MaxWorkers: workers,
		Window: workers, WindowWait: time.Second, Depth: 1, Dial: dialUp(srv.Addr()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Join sequentially so worker k owns mirror slot k: slot order is the
	// merge's summation order.
	clients := make([]*aggClient, workers)
	var warm sync.WaitGroup
	for k := range clients {
		clients[k] = newAggClient(t, a, k, sizes)
	}
	var empty sparse.Update
	for _, c := range clients {
		warm.Add(1)
		go func(c *aggClient) {
			defer warm.Done()
			if _, err := c.push(&empty); err != nil {
				t.Errorf("worker %d warmup: %v", c.id, err)
			}
		}(c)
		// The hello itself must land before the next worker's so slot
		// assignment is deterministic; onJoin runs on first contact.
		time.Sleep(10 * time.Millisecond)
	}
	warm.Wait()
	if t.Failed() {
		t.FailNow()
	}

	rng := tensor.NewRNG(22)
	srcs := make([]*sparse.Update, workers)
	for k := range srcs {
		u := randUpdate(rng, sizes, 0.2)
		srcs[k] = &u
	}
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(c *aggClient, g *sparse.Update) {
			defer wg.Done()
			if _, err := c.push(g); err != nil {
				t.Errorf("worker %d push: %v", c.id, err)
			}
		}(c, srcs[k])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Reference: the same updates merged in slot order, applied as one push.
	ref := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 1})
	ref.Push(0, sparse.Merge(srcs))

	mUp, mRef := alloc(sizes), alloc(sizes)
	up.MSnapshot(mUp)
	ref.MSnapshot(mRef)
	requireBitwise(t, "merged window vs reference merge", mUp, mRef)

	st := a.Stats()
	if st.Windows < 2 || st.Parts < uint64(2*workers) {
		t.Fatalf("stats %+v: expected at least 2 windows of %d parts", st, workers)
	}
}

// Concurrent fleet through two aggregators: arrival order is arbitrary, so
// only the fixpoint is pinned — after drain every worker replica equals the
// upstream model bitwise, and each mirror equals the upstream's record of
// its aggregator (v_agg) bitwise.
func TestEquivalenceConcurrentFixpoint(t *testing.T) {
	sizes := []int{513, 130}
	const workersPerAgg, aggs = 3, 2
	up, srv := startUpstream(t, ps.Config{LayerSizes: sizes, Workers: aggs})

	var tier []*Aggregator
	var clients []*aggClient
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
		for k := 0; k < workersPerAgg; k++ {
			clients = append(clients, newAggClient(t, a, k, sizes))
		}
	}

	const pushes = 12
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *aggClient) {
			defer wg.Done()
			rng := tensor.NewRNG(100 + uint64(i))
			for s := 0; s < pushes; s++ {
				g := randUpdate(rng, sizes, 0.25)
				if _, err := c.push(&g); err != nil {
					t.Errorf("worker %d push %d: %v", i, s, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Drain until three consecutive all-empty rounds: both tiers fixed.
	for stable := 0; stable < 3; {
		total := 0
		for _, c := range clients {
			var empty sparse.Update
			n, err := c.push(&empty)
			if err != nil {
				t.Fatalf("worker %d drain: %v", c.id, err)
			}
			total += n
		}
		if total == 0 {
			stable++
		} else {
			stable = 0
		}
	}

	mUp := alloc(sizes)
	up.MSnapshot(mUp)
	for ai, a := range tier {
		mMirror, vAgg := alloc(sizes), alloc(sizes)
		a.Mirror().MSnapshot(mMirror)
		up.VSnapshot(ai, vAgg)
		requireBitwise(t, "mirror M vs upstream v_agg", mMirror, vAgg)
		requireBitwise(t, "mirror M vs upstream M", mMirror, mUp)
	}
	for i, c := range clients {
		requireBitwise(t, "worker replica vs upstream M", c.replica, mUp)
		_ = i
	}
	// The merge actually deduplicated overlapping supports.
	var st Stats
	for _, a := range tier {
		s := a.Stats()
		st.Windows += s.Windows
		st.Parts += s.Parts
	}
	if st.Parts <= st.Windows {
		t.Fatalf("no batching happened: %d parts in %d windows", st.Parts, st.Windows)
	}
}

// Quantized upward codec through the tier: workers push stochastic-ternary
// frames; the aggregator decodes, merges the decoded values, and forwards
// raw — exactly the values a direct server would have applied. Sequential
// window-1 script, so the comparison is bitwise across topologies.
func TestEquivalenceQuantizedBitwise(t *testing.T) {
	sizes := []int{300}
	const workers = 2
	up, srv := startUpstream(t, ps.Config{LayerSizes: sizes, Workers: 1})
	a, err := New(Config{
		LayerSizes: sizes, MaxWorkers: workers,
		Window: 1, Depth: 1, Dial: dialUp(srv.Addr()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Force raw downward on the direct server to mirror the aggregator's
	// always-raw downward policy.
	direct := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: workers})

	codec, err := sparse.CodecByName("ternary")
	if err != nil {
		t.Fatal(err)
	}
	quant := codec.(sparse.Quantizer)

	clients := make([]*aggClient, workers)
	directLocal := make([][][]float32, workers)
	for k := range clients {
		clients[k] = newAggClient(t, a, k, sizes)
		directLocal[k] = alloc(sizes)
	}

	rng := tensor.NewRNG(23)
	qrng := tensor.NewRNG(24)
	var q, e sparse.Update
	for step := 0; step < 8; step++ {
		k := step % workers
		g := randUpdate(rng, sizes, 0.4)
		quant.Quantize(&q, &g, qrng, &e)
		// Both topologies receive the identical quantized update: the agg
		// client ships it in the ternary wire codec, the direct server gets
		// the decoded equivalent.
		frame := quant.AppendEncode(nil, &q)
		resp, err := clients[k].tr.Exchange(k, frame)
		if err != nil {
			t.Fatalf("worker %d quantized push: %v", k, err)
		}
		if err := sparse.DecodeAnyInto(&clients[k].down, resp); err != nil {
			t.Fatal(err)
		}
		applyUpdate(&clients[k].down, clients[k].replica)

		var dq sparse.Update
		if err := sparse.DecodeAnyInto(&dq, quant.AppendEncode(nil, &q)); err != nil {
			t.Fatal(err)
		}
		G, _ := direct.Push(k, &dq)
		applyUpdate(&G, directLocal[k])
	}

	drainAll(t, clients, 200)
	for k := 0; k < workers; k++ {
		var empty sparse.Update
		for r := 0; ; r++ {
			G, _ := direct.Push(k, &empty)
			applyUpdate(&G, directLocal[k])
			if G.NNZ() == 0 {
				break
			}
			if r > 200 {
				t.Fatalf("direct worker %d not drained", k)
			}
		}
	}

	mUp, mDirect := alloc(sizes), alloc(sizes)
	up.MSnapshot(mUp)
	direct.MSnapshot(mDirect)
	requireBitwise(t, "quantized: upstream M vs direct M", mUp, mDirect)
	for k, c := range clients {
		requireBitwise(t, "quantized: replica vs upstream M", c.replica, mUp)
		requireBitwise(t, "quantized: replica vs direct replica", c.replica, directLocal[k])
	}
}

// A worker push that decodes but does not fit the model is refused on its
// own, before it can join a window: the upstream would reject the merged
// frame and fail every contributor with it.
func TestBadWorkerFrameIsRefusedAlone(t *testing.T) {
	sizes := []int{64, 16}
	up, srv := startUpstream(t, ps.Config{LayerSizes: sizes, Workers: 1})
	a, err := New(Config{
		LayerSizes: sizes, MaxWorkers: 2,
		Window: 1, Depth: 1, Dial: dialUp(srv.Addr()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	clients := []*aggClient{newAggClient(t, a, 0, sizes), newAggClient(t, a, 1, sizes)}

	rng := tensor.NewRNG(5)
	good := randUpdate(rng, sizes, 0.2)
	if _, err := clients[0].push(&good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []sparse.Update{
		{Chunks: []sparse.Chunk{{Layer: 2, Idx: []int32{0}, Val: []float32{1}}}},
		{Chunks: []sparse.Chunk{{Layer: 1, Idx: []int32{16}, Val: []float32{1}}}},
	} {
		if _, err := clients[0].push(&bad); err == nil {
			t.Fatal("push outside the model geometry was accepted")
		}
		for k, c := range clients {
			if _, err := c.push(&good); err != nil {
				t.Fatalf("worker %d push after the bad frame: %v", k, err)
			}
		}
	}
	if st := a.Stats(); st.UpstreamResets != 0 || st.Windows != 5 {
		t.Fatalf("stats %+v: want 5 windows and no upstream reset", st)
	}
	drainAll(t, clients, 200)
	m := alloc(sizes)
	up.MSnapshot(m)
	for _, c := range clients {
		requireBitwise(t, "worker replica vs upstream M", c.replica, m)
	}
}
