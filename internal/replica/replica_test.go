package replica

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// upstream is one in-process parameter-server endpoint: a real ps.Server
// behind the exactly-once session middleware and a TCP listener, the same
// stack `dgs server` serves.
type upstream struct {
	server *ps.Server
	eo     *transport.ExactlyOnce
	srv    *transport.TCPServer
}

func startUpstream(t *testing.T, sizes []int, workers int, policy string) *upstream {
	t.Helper()
	server := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: workers, Quiet: true})
	eo, err := trainer.ExactlyOnceHandlerWithCodec(server, policy)
	if err != nil {
		t.Fatalf("handler: %v", err)
	}
	srv, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return &upstream{server: server, eo: eo, srv: srv}
}

func alloc(sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i] = make([]float32, n)
	}
	return out
}

// dialTrainer builds a plain (non-reader) worker client.
func dialTrainer(addr string) transport.Transport {
	tr, _ := trainer.NewDialStack(trainer.DialOptions{Addr: addr, Retries: 6, Backoff: 2 * time.Millisecond})()
	return tr
}

// pushRandom sends one sparse random update as worker id and discards the
// downward diff (the trainer side's replica is irrelevant to these tests).
func pushRandom(t *testing.T, tr transport.Transport, id int, rng *rand.Rand, sizes []int) {
	t.Helper()
	var u sparse.Update
	for layer, n := range sizes {
		var idx []int32
		var val []float32
		for j := rng.Intn(7); j < n; j += 1 + rng.Intn(64) {
			idx = append(idx, int32(j))
			val = append(val, rng.Float32()*2-1)
		}
		if len(idx) > 0 {
			u.Chunks = append(u.Chunks, sparse.Chunk{Layer: layer, Idx: idx, Val: val})
		}
	}
	if _, err := tr.Exchange(id, sparse.AppendEncode(nil, &u)); err != nil {
		t.Fatalf("push: %v", err)
	}
}

func requireSameModel(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	for l := range want {
		for j := range want[l] {
			if got[l][j] != want[l][j] {
				t.Fatalf("%s: [%d][%d]=%v, want %v", what, l, j, got[l][j], want[l][j])
			}
		}
	}
}

func newReplica(t *testing.T, u *upstream, sizes []int, worker int, codec string, syncEvery int) *Replica {
	t.Helper()
	r, err := New(Config{
		LayerSizes:    sizes,
		Worker:        worker,
		Dial:          DialStack(u.srv.Addr(), 5*time.Second, 6, 2*time.Millisecond, 50*time.Millisecond),
		Codec:         codec,
		PollInterval:  time.Millisecond,
		SyncEvery:     syncEvery,
		ResyncBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("replica: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestReplicaDrainEquivalence is the core acceptance drill: a replica
// subscribing over the real session/TCP stack while a trainer pushes, then a
// drain — after Sync the replica's mirror equals the upstream M bitwise, and
// the upstream accounted the session as a read-session.
func TestReplicaDrainEquivalence(t *testing.T) {
	sizes := []int{1 << 10, 129}
	u := startUpstream(t, sizes, 2, "mirror")
	r := newReplica(t, u, sizes, 1, "raw", 8)

	wtr := dialTrainer(u.srv.Addr())
	defer wtr.Close()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 60; i++ {
		pushRandom(t, wtr, 0, rng, sizes)
		if i%10 == 9 {
			time.Sleep(2 * time.Millisecond) // let polls interleave the churn
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}

	m, mr := alloc(sizes), alloc(sizes)
	u.server.MSnapshot(m)
	r.MSnapshot(mr)
	requireSameModel(t, "replica after drain", mr, m)

	if ss := u.eo.Stats(); ss.ReaderHellos == 0 {
		t.Fatalf("upstream adopted no reader hellos: %+v", ss)
	}
	if !u.eo.ReaderSession(1) {
		t.Fatal("worker 1's session not marked as reader")
	}
	if u.eo.ReaderSession(0) {
		t.Fatal("trainer session misreported as reader")
	}
	st := r.Stats()
	if st.Polls == 0 || st.AppliedCoords == 0 {
		t.Fatalf("replica never applied anything: %+v", st)
	}
}

// TestReplicaLossyCodecDrain runs the steady state over a lossy downward
// codec (every poll but the drain probes is ternary-quantized; the upstream
// folds the projection error into the replica's v_k), then drains: the
// final mirror must STILL equal the upstream M bitwise. FoldDown rounding
// can leave a lossy mirror one ULP off v_k, so Sync re-bases (fresh
// incarnation, dense raw snapshot) before raw-draining to exactly empty.
func TestReplicaLossyCodecDrain(t *testing.T) {
	sizes := []int{1 << 10, 129}
	u := startUpstream(t, sizes, 2, "mirror")
	r := newReplica(t, u, sizes, 1, "ternary", 1<<30) // steady polls never raw

	wtr := dialTrainer(u.srv.Addr())
	defer wtr.Close()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 60; i++ {
		pushRandom(t, wtr, 0, rng, sizes)
		if i%10 == 9 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Give the subscription a beat so some quantized frames actually land
	// before the drain.
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().AppliedCoords == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := r.Stats(); st.AppliedCoords == 0 {
		t.Fatalf("no quantized frames applied before drain: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	m, mr := alloc(sizes), alloc(sizes)
	u.server.MSnapshot(m)
	r.MSnapshot(mr)
	requireSameModel(t, "replica after lossy drain", mr, m)
	if st := r.Stats(); st.Rebases == 0 {
		t.Fatalf("lossy drain did not re-base the mirror: %+v", st)
	}
}

// TestReplicaSnapshotCursor checks the generation-aware incremental read
// path: successive cuts through one ReaderState are monotone in stamp and
// bitwise equal to MSnapshot at the same moment of quiescence.
func TestReplicaSnapshotCursor(t *testing.T) {
	sizes := []int{1 << 10, 129}
	u := startUpstream(t, sizes, 2, "mirror")
	r := newReplica(t, u, sizes, 1, "raw", 2)

	wtr := dialTrainer(u.srv.Addr())
	defer wtr.Close()
	rng := rand.New(rand.NewSource(47))
	rs := r.NewReaderState()
	var lastT uint64
	for round := 0; round < 10; round++ {
		for i := 0; i < 6; i++ {
			pushRandom(t, wtr, 0, rng, sizes)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := r.Sync(ctx); err != nil {
			t.Fatalf("round %d sync: %v", round, err)
		}
		cancel()
		model, stamp, gen := r.Snapshot(rs)
		if stamp < lastT {
			t.Fatalf("round %d: stamp went backwards %d → %d", round, lastT, stamp)
		}
		lastT = stamp
		if gen != 0 {
			t.Fatalf("round %d: unexpected generation %d", round, gen)
		}
		full := alloc(sizes)
		r.MSnapshot(full)
		requireSameModel(t, "incremental cursor", model, full)
	}
}

// TestReplicaUpstreamRestart kills the upstream process state entirely — a
// fresh server object with a fresh incarnation on the same address — and
// requires the replica to fence, resync and converge on the NEW upstream's
// model, generation bumped so readers know stamps re-based.
func TestReplicaUpstreamRestart(t *testing.T) {
	sizes := []int{1 << 10, 129}
	u := startUpstream(t, sizes, 2, "mirror")
	addr := u.srv.Addr()
	r := newReplica(t, u, sizes, 1, "raw", 8)

	wtr := dialTrainer(addr)
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 30; i++ {
		pushRandom(t, wtr, 0, rng, sizes)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := r.Sync(ctx)
	cancel()
	if err != nil {
		t.Fatalf("pre-restart sync: %v", err)
	}
	wtr.Close()

	// Crash: listener gone, server object discarded, nothing survives.
	u.srv.Close()
	server2 := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 2, Quiet: true})
	eo2, err := trainer.ExactlyOnceHandlerWithCodec(server2, "mirror")
	if err != nil {
		t.Fatalf("handler: %v", err)
	}
	srv2, err := transport.ListenTCP(addr, eo2.Handle)
	if err != nil {
		t.Fatalf("re-listen: %v", err)
	}
	defer srv2.Close()

	wtr2 := dialTrainer(addr)
	defer wtr2.Close()
	for i := 0; i < 30; i++ {
		pushRandom(t, wtr2, 0, rng, sizes)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := r.Sync(ctx); err != nil {
		t.Fatalf("post-restart sync: %v", err)
	}
	m, mr := alloc(sizes), alloc(sizes)
	server2.MSnapshot(m)
	stamp, gen := r.MSnapshot(mr)
	requireSameModel(t, "replica after upstream restart", mr, m)
	if gen == 0 {
		t.Fatal("generation did not bump across the upstream restart")
	}
	if st := r.Stats(); st.Resyncs == 0 {
		t.Fatalf("no resync counted: %+v", st)
	}
	if stamp == 0 {
		t.Fatal("post-restart mirror has zero stamp despite applied diffs")
	}
	// The new incarnation re-adopted the replica as a reader.
	if ss := eo2.Stats(); ss.ReaderHellos == 0 {
		t.Fatalf("restarted upstream adopted no reader hellos: %+v", ss)
	}
}

// TestReplicaIncarnationFence exercises the fence without a socket drop: an
// ExactlyOnce.Reset (the aggregation tier's upstream-reset behaviour) makes
// every following response carry a new server incarnation, and the replica
// must rebuild rather than trust its mirror.
func TestReplicaIncarnationFence(t *testing.T) {
	sizes := []int{1 << 9, 65}
	u := startUpstream(t, sizes, 2, "mirror")
	r := newReplica(t, u, sizes, 1, "raw", 8)

	wtr := dialTrainer(u.srv.Addr())
	defer wtr.Close()
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 20; i++ {
		pushRandom(t, wtr, 0, rng, sizes)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := r.Sync(ctx)
	cancel()
	if err != nil {
		t.Fatalf("pre-fence sync: %v", err)
	}

	u.eo.Reset() // server state survives, every session is fenced

	ctx, cancel = context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := r.Sync(ctx); err != nil {
		t.Fatalf("post-fence sync: %v", err)
	}
	m, mr := alloc(sizes), alloc(sizes)
	u.server.MSnapshot(m)
	_, gen := r.MSnapshot(mr)
	requireSameModel(t, "replica after incarnation fence", mr, m)
	if gen == 0 {
		t.Fatal("generation did not bump across the fence")
	}
}

// TestReplicaKillRejoin is the replica-side chaos drill: the replica dies
// (Close) and a successor with the same worker id rejoins — the hello
// resyncs the slot and the successor converges without any state from its
// predecessor.
func TestReplicaKillRejoin(t *testing.T) {
	sizes := []int{1 << 9, 65}
	u := startUpstream(t, sizes, 2, "mirror")

	wtr := dialTrainer(u.srv.Addr())
	defer wtr.Close()
	rng := rand.New(rand.NewSource(61))

	r1 := newReplica(t, u, sizes, 1, "raw", 8)
	for i := 0; i < 20; i++ {
		pushRandom(t, wtr, 0, rng, sizes)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := r1.Sync(ctx)
	cancel()
	if err != nil {
		t.Fatalf("first replica sync: %v", err)
	}
	r1.Close() // the kill

	for i := 0; i < 20; i++ {
		pushRandom(t, wtr, 0, rng, sizes)
	}
	r2 := newReplica(t, u, sizes, 1, "raw", 8)
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r2.Sync(ctx); err != nil {
		t.Fatalf("successor sync: %v", err)
	}
	m, mr := alloc(sizes), alloc(sizes)
	u.server.MSnapshot(m)
	r2.MSnapshot(mr)
	requireSameModel(t, "successor replica", mr, m)
	// The upstream adopted two reader incarnations on the same slot.
	if ss := u.eo.Stats(); ss.ReaderHellos < 2 {
		t.Fatalf("want ≥2 reader hellos across the rejoin, got %+v", ss)
	}
}

// TestReplicaSupersededParks pins the fatal path: when a second live replica
// claims the same worker id, the first one's session is superseded and it
// must park (ErrStaleSession is not recoverable — rejoining would fence out
// the legitimate owner) instead of fighting for the slot.
func TestReplicaSupersededParks(t *testing.T) {
	sizes := []int{1 << 9}
	u := startUpstream(t, sizes, 2, "mirror")

	r1 := newReplica(t, u, sizes, 1, "raw", 8)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := r1.Sync(ctx)
	cancel()
	if err != nil {
		t.Fatalf("first replica sync: %v", err)
	}

	r2 := newReplica(t, u, sizes, 1, "raw", 8) // misconfigured double-claim
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	err = r2.Sync(ctx)
	cancel()
	if err != nil {
		t.Fatalf("second replica sync: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for r1.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := r1.Err(); err == nil {
		t.Fatal("superseded replica did not park")
	}
	// The survivor keeps serving.
	if err := r2.Err(); err != nil {
		t.Fatalf("legitimate replica parked: %v", err)
	}
}

// TestReplicaParkedSyncReportsSupersession: once a superseded replica has
// parked, Sync reports the supersession — errors.Is ErrStaleSession — for
// as long as the replica stays parked, not ErrClosed after the parked loop
// exits, since Close was never called.
func TestReplicaParkedSyncReportsSupersession(t *testing.T) {
	sizes := []int{1 << 9}
	u := startUpstream(t, sizes, 2, "mirror")
	r1 := newReplica(t, u, sizes, 1, "raw", 8)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r1.Sync(ctx); err != nil {
		t.Fatalf("first replica sync: %v", err)
	}
	r2 := newReplica(t, u, sizes, 1, "raw", 8) // misconfigured double-claim
	if err := r2.Sync(ctx); err != nil {
		t.Fatalf("second replica sync: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for r1.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r1.Err() == nil {
		t.Fatal("superseded replica did not park")
	}
	// Well past the poll interval: the parked loop has exited by now.
	time.Sleep(200 * time.Millisecond)
	if err := r1.Sync(ctx); !errors.Is(err, transport.ErrStaleSession) {
		t.Fatalf("parked replica Sync = %v, want the supersession (ErrStaleSession)", err)
	}
}
