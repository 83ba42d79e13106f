package ps

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dgs/internal/checkpoint"
	"dgs/internal/nn"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// randUpdate builds a sparse update touching a few random coordinates of a
// few layers.
func randUpdate(rng *rand.Rand, sizes []int, touch int) *sparse.Update {
	u := &sparse.Update{}
	for layer, n := range sizes {
		if rng.Intn(2) == 0 {
			continue
		}
		c := u.NextChunk()
		c.Layer = layer
		seen := map[int32]bool{}
		for i := 0; i < touch; i++ {
			j := int32(rng.Intn(n))
			if seen[j] {
				continue
			}
			seen[j] = true
			c.Idx = append(c.Idx, j)
			c.Val = append(c.Val, rng.Float32()-0.5)
		}
		sortChunk(c)
	}
	return u
}

func sortChunk(c *sparse.Chunk) {
	// Insertion sort by index; updates are tiny in these tests.
	for i := 1; i < len(c.Idx); i++ {
		for j := i; j > 0 && c.Idx[j-1] > c.Idx[j]; j-- {
			c.Idx[j-1], c.Idx[j] = c.Idx[j], c.Idx[j-1]
			c.Val[j-1], c.Val[j] = c.Val[j], c.Val[j-1]
		}
	}
}

func captureConfig() Config {
	return Config{LayerSizes: []int{300, 41, 513}, Workers: 3, BlockShift: 4}
}

// drive pushes n random updates round-robin across workers.
func drive(t *testing.T, s Pusher, rng *rand.Rand, sizes []int, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		s.Push(i%3, randUpdate(rng, sizes, 6))
	}
}

// TestCaptureRestoreRoundTrip checks that a restored server is
// indistinguishable from the original: same snapshots, and — the real
// invariant — identical downward differences for an identical subsequent
// push sequence.
func TestCaptureRestoreRoundTrip(t *testing.T) {
	cfg := captureConfig()
	rng := rand.New(rand.NewSource(42))
	s := NewServer(cfg)
	drive(t, s, rng, cfg.LayerSizes, 40)

	st := s.NewCaptureState()
	st.Incarnation, st.Seq = 7, 1
	if _, err := s.Capture(st); err != nil {
		t.Fatal(err)
	}
	// Round-trip through the wire format too.
	dec, err := checkpoint.Decode(checkpoint.Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreServer(cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timestamp() != s.Timestamp() {
		t.Fatalf("restored t=%d, want %d", r.Timestamp(), s.Timestamp())
	}
	for k := 0; k < cfg.Workers; k++ {
		if r.Epoch(k) != s.Epoch(k) {
			t.Fatalf("worker %d epoch %d, want %d", k, r.Epoch(k), s.Epoch(k))
		}
	}
	mOrig, mRest := snapshotBuf(cfg.LayerSizes), snapshotBuf(cfg.LayerSizes)
	s.MSnapshot(mOrig)
	r.MSnapshot(mRest)
	if !reflect.DeepEqual(mOrig, mRest) {
		t.Fatal("restored M differs")
	}
	// Identical future: replay the same pushes into both and compare the
	// downward differences bitwise.
	seq := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		u := randUpdate(seq, cfg.LayerSizes, 5)
		w := i % cfg.Workers
		gs, ts1 := s.Push(w, cloneUpdate(u))
		gr, ts2 := r.Push(w, cloneUpdate(u))
		if ts1 != ts2 {
			t.Fatalf("push %d: timestamps %d vs %d", i, ts1, ts2)
		}
		if !updatesEqual(&gs, &gr) {
			t.Fatalf("push %d: downward differences diverge", i)
		}
	}
}

// TestSecondaryCaptureRestoreRoundTrip is the restore path's sharp edge for
// suppressed Eq. 6 residual: version-clean blocks still holding mass must
// be rescanned after the restore, or the restored server's downward
// differences silently diverge from the original server's.
func TestSecondaryCaptureRestoreRoundTrip(t *testing.T) {
	cfg := captureConfig()
	cfg.Secondary = true
	cfg.SecondaryRatio = 0.05
	rng := rand.New(rand.NewSource(17))
	s := NewServer(cfg)
	// Enough pushes that every worker carries real suppressed residual.
	drive(t, s, rng, cfg.LayerSizes, 60)

	st := s.NewCaptureState()
	st.Incarnation, st.Seq = 3, 1
	if _, err := s.Capture(st); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.Decode(checkpoint.Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreServer(cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	// Identical future: the restored server must ship bitwise-identical
	// secondary-compressed differences, including residual mass that went
	// version-clean before the capture.
	seq := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		u := randUpdate(seq, cfg.LayerSizes, 5)
		w := i % cfg.Workers
		gs, ts1 := s.Push(w, cloneUpdate(u))
		gr, ts2 := r.Push(w, cloneUpdate(u))
		if ts1 != ts2 {
			t.Fatalf("push %d: timestamps %d vs %d", i, ts1, ts2)
		}
		if !updatesEqual(&gs, &gr) {
			t.Fatalf("push %d: secondary downward differences diverge after restore", i)
		}
	}
}

func cloneUpdate(u *sparse.Update) *sparse.Update {
	out := &sparse.Update{}
	for i := range u.Chunks {
		c := out.NextChunk()
		c.Layer = u.Chunks[i].Layer
		c.Idx = append(c.Idx[:0], u.Chunks[i].Idx...)
		c.Val = append(c.Val[:0], u.Chunks[i].Val...)
	}
	return out
}

func updatesEqual(a, b *sparse.Update) bool {
	if len(a.Chunks) != len(b.Chunks) {
		return false
	}
	for i := range a.Chunks {
		ca, cb := &a.Chunks[i], &b.Chunks[i]
		if ca.Layer != cb.Layer || !reflect.DeepEqual(ca.Idx, cb.Idx) || !reflect.DeepEqual(ca.Val, cb.Val) {
			return false
		}
	}
	return true
}

func snapshotBuf(sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i] = make([]float32, n)
	}
	return out
}

// TestCaptureIncremental is the scan/skip counter test from the acceptance
// criteria: after a first full capture, a capture following a few localised
// pushes must copy only the dirtied blocks and skip the rest.
func TestCaptureIncremental(t *testing.T) {
	cfg := captureConfig()
	rng := rand.New(rand.NewSource(7))
	s := NewServer(cfg)
	drive(t, s, rng, cfg.LayerSizes, 60)

	st := s.NewCaptureState()
	first, err := s.Capture(st)
	if err != nil {
		t.Fatal(err)
	}
	if first.BlocksCopied == 0 {
		t.Fatal("first capture copied nothing")
	}

	// Quiescent capture: nothing dirtied, nothing copied.
	idle, err := s.Capture(st)
	if err != nil {
		t.Fatal(err)
	}
	if idle.BlocksCopied != 0 {
		t.Fatalf("idle capture copied %d blocks, want 0", idle.BlocksCopied)
	}
	if idle.BlocksSkipped == 0 {
		t.Fatal("idle capture skipped nothing — dirty tracking inert?")
	}

	// One localised push: only its blocks (in M and in the pushing worker's
	// v) plus the worker's downward-diff touches should be copied.
	u := &sparse.Update{}
	c := u.NextChunk()
	c.Layer = 0
	c.Idx = []int32{0, 1}
	c.Val = []float32{0.5, -0.25}
	s.Push(1, u)
	inc, err := s.Capture(st)
	if err != nil {
		t.Fatal(err)
	}
	if inc.BlocksCopied == 0 {
		t.Fatal("incremental capture copied nothing after a push")
	}
	if inc.BlocksCopied >= first.BlocksCopied {
		t.Fatalf("incremental capture copied %d blocks, full capture copied %d — not incremental",
			inc.BlocksCopied, first.BlocksCopied)
	}
	if inc.BlocksSkipped <= inc.BlocksCopied {
		t.Fatalf("incremental capture scanned more than it skipped (%d copied, %d skipped) after one tiny push",
			inc.BlocksCopied, inc.BlocksSkipped)
	}
	// The incremental state must still equal a from-scratch full capture.
	full := s.NewCaptureState()
	if _, err := s.Capture(full); err != nil {
		t.Fatal(err)
	}
	st.WallNano = full.WallNano // capture times differ by construction
	if !reflect.DeepEqual(st, full) {
		t.Fatal("incremental capture state diverged from full capture")
	}
}

// TestCaptureSeesResync: a worker resync between captures must be reflected
// in the next incremental capture (zeroed v, bumped epoch).
func TestCaptureSeesResync(t *testing.T) {
	cfg := captureConfig()
	rng := rand.New(rand.NewSource(3))
	s := NewServer(cfg)
	drive(t, s, rng, cfg.LayerSizes, 30)
	st := s.NewCaptureState()
	if _, err := s.Capture(st); err != nil {
		t.Fatal(err)
	}
	s.Resync(1)
	if _, err := s.Capture(st); err != nil {
		t.Fatal(err)
	}
	full := s.NewCaptureState()
	if _, err := s.Capture(full); err != nil {
		t.Fatal(err)
	}
	st.WallNano = full.WallNano
	if !reflect.DeepEqual(st, full) {
		t.Fatal("capture after Resync diverged from full capture")
	}
	if st.Shards[0].Workers[1].Epoch != 1 {
		t.Fatalf("captured epoch %d, want 1", st.Shards[0].Workers[1].Epoch)
	}
}

// requireShardedCapture captures sh into st and requires the capture to
// survive Encode → Decode unchanged and to hold, layer by layer, ref's M
// and v_k bitwise: ref is one Server fed the same pushes.
func requireShardedCapture(t *testing.T, sh *ShardedServer, ref *Server, st *checkpoint.State) {
	t.Helper()
	if _, err := sh.Capture(st); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.Decode(checkpoint.Encode(st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dec, st) {
		t.Fatal("decoded capture differs from the captured state")
	}
	sizes := ref.LayerSizes()
	want := snapshotBuf(sizes)
	for k := -1; k < len(st.Shards[0].Workers); k++ {
		if k < 0 {
			ref.MSnapshot(want)
		} else {
			ref.VSnapshot(k, want)
		}
		for si := range dec.Shards {
			ss := &dec.Shards[si]
			for li, gl := range ss.Layers {
				got := ss.M[li]
				if k >= 0 {
					got = ss.Workers[k].V[li]
				}
				for j := range got {
					if math.Float32bits(got[j]) != math.Float32bits(want[gl][j]) {
						t.Fatalf("state %d (−1 = M), layer %d index %d: captured %v, one server holds %v", k, gl, j, got[j], want[gl][j])
					}
				}
			}
		}
	}
}

// TestShardedCapture: a ShardedServer's capture, first full and then
// incremental into the same State, decodes to one Server's M and v_k under
// the same pushes.
func TestShardedCapture(t *testing.T) {
	cfg := captureConfig()
	s, ref := NewShardedServer(cfg, 2), NewServer(cfg)
	rng := rand.New(rand.NewSource(11))
	st := s.NewCaptureState()
	for round := 0; round < 2; round++ {
		for i := 0; i < 40; i++ {
			u := randUpdate(rng, cfg.LayerSizes, 6)
			s.Push(i%cfg.Workers, cloneUpdate(u))
			ref.Push(i%cfg.Workers, cloneUpdate(u))
		}
		requireShardedCapture(t, s, ref, st)
	}
}

// TestShardedCaptureModelGeometries: the geometries the benchmark trains,
// on 2 shards with Secondary at 5 % (mlp_dual_pipe's server), capture
// through Encode → Decode bitwise. Cost-model LPT places a dominant layer
// first, so a shard's layers only decode if each shard lists them in
// ascending global id.
func TestShardedCaptureModelGeometries(t *testing.T) {
	for name, sizes := range map[string][]int{
		"mlp":     nn.NewMLP(tensor.NewRNG(1), 64, 512, 512, 64).LayerSizes(),
		"resnets": nn.NewResNetS(tensor.NewRNG(1), nn.DefaultResNetS(10)).LayerSizes(),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{LayerSizes: sizes, Workers: 2, Secondary: true, SecondaryRatio: 0.05, Quiet: true}
			s, ref := NewShardedServer(cfg, 2), NewServer(cfg)
			rng := tensor.NewRNG(8)
			for i := 0; i < 6; i++ {
				u := topKUpdate(rng, sizes, 0.05)
				s.Push(i%2, cloneUpdate(u))
				ref.Push(i%2, cloneUpdate(u))
			}
			requireShardedCapture(t, s, ref, s.NewCaptureState())
		})
	}
}

// TestRestoreRejectsGeometryMismatch: wrong worker counts, layer sizes or
// block shifts, or a file of more than one shard, must be refused, not
// silently misapplied.
func TestRestoreRejectsGeometryMismatch(t *testing.T) {
	cfg := captureConfig()
	s := NewServer(cfg)
	st := s.NewCaptureState()
	if _, err := s.Capture(st); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Workers = 5
	if _, err := RestoreServer(bad, st); err == nil {
		t.Fatal("restore accepted wrong worker count")
	}
	bad = cfg
	bad.LayerSizes = []int{300, 41, 999}
	if _, err := RestoreServer(bad, st); err == nil {
		t.Fatal("restore accepted wrong layer size")
	}
	bad = cfg
	bad.BlockShift = 6
	if _, err := RestoreServer(bad, st); err == nil {
		t.Fatal("restore accepted wrong block shift")
	}
	sharded := NewShardedServer(cfg, 2)
	multi := sharded.NewCaptureState()
	if _, err := sharded.Capture(multi); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreServer(cfg, multi); err == nil {
		t.Fatal("restore accepted a checkpoint of two shards")
	}
}

// TestRestoreAdoptsCheckpointBlockShift: the block shift is stored state, so
// a configuration that leaves it to the auto rule takes the checkpoint's —
// the rule depends on Secondary and has changed between releases, and
// neither may strand a checkpoint. A checkpoint written at shift 10 restores
// bitwise into an auto-configured server (which would pick 6 on its own),
// and a plain <-> secondary flip across the restore still reaches Eq. 5.
func TestRestoreAdoptsCheckpointBlockShift(t *testing.T) {
	sizes := []int{1 << 14, 1 << 13, 5000}
	auto := Config{LayerSizes: sizes, Workers: 3}
	secondary := Config{LayerSizes: sizes, Workers: 3, Secondary: true, SecondaryRatio: 0.05}
	if a, b := NewServer(auto).blockShift, NewServer(secondary).blockShift; a == b || a == 10 {
		t.Fatalf("auto shifts %d (plain) and %d (secondary): the test needs them distinct and not 10", a, b)
	}
	checkpointOf := func(s *Server) *checkpoint.State {
		st := s.NewCaptureState()
		if _, err := s.Capture(st); err != nil {
			t.Fatal(err)
		}
		dec, err := checkpoint.Decode(checkpoint.Encode(st))
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	// requireFixpoint pushes on, drains every worker and checks v_k == M.
	requireFixpoint := func(label string, r *Server) {
		drive(t, r, rand.New(rand.NewSource(3)), sizes, 30)
		m, v := snapshotBuf(sizes), snapshotBuf(sizes)
		var empty sparse.Update
		for k := 0; k < 3; k++ {
			for round := 0; ; round++ {
				if G, _ := r.Push(k, &empty); G.NNZ() == 0 {
					break
				}
				if round > 10000 {
					t.Fatalf("%s: worker %d never drained", label, k)
				}
			}
		}
		r.MSnapshot(m)
		for k := 0; k < 3; k++ {
			r.VSnapshot(k, v)
			if !reflect.DeepEqual(m, v) {
				t.Fatalf("%s: v_%d != M after drain", label, k)
			}
		}
	}

	wide := auto
	wide.BlockShift = 10
	s := NewServer(wide)
	drive(t, s, rand.New(rand.NewSource(1)), sizes, 40)
	st := checkpointOf(s)

	r, err := RestoreServer(auto, st)
	if err != nil {
		t.Fatalf("auto-configured restore of a shift-10 checkpoint: %v", err)
	}
	if r.blockShift != 10 {
		t.Fatalf("restored server runs at shift %d, want the checkpoint's 10", r.blockShift)
	}
	seq := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		u := randUpdate(seq, sizes, 5)
		gs, ts1 := s.Push(i%3, cloneUpdate(u))
		gr, ts2 := r.Push(i%3, cloneUpdate(u))
		if ts1 != ts2 || !updatesEqual(&gs, &gr) {
			t.Fatalf("push %d: restored server diverges from the original", i)
		}
	}
	explicit := auto
	explicit.BlockShift = 6
	if _, err := RestoreServer(explicit, st); err == nil {
		t.Fatal("restore accepted an explicit block shift that differs from the checkpoint's")
	}

	// Plain checkpoint into a secondary server, and back.
	r, err = RestoreServer(secondary, st)
	if err != nil {
		t.Fatalf("plain -> secondary restore: %v", err)
	}
	requireFixpoint("plain -> secondary", r)
	r, err = RestoreServer(auto, checkpointOf(r))
	if err != nil {
		t.Fatalf("secondary -> plain restore: %v", err)
	}
	requireFixpoint("secondary -> plain", r)

}

// TestCaptureConcurrentWithPushes exercises the quiesce path under the race
// detector: captures interleave with pushes from every worker, and each
// captured state must be internally consistent (decode round-trip checks
// the geometry; the final capture must equal a full capture).
func TestCaptureConcurrentWithPushes(t *testing.T) {
	cfg := captureConfig()
	s := NewServer(cfg)
	st := s.NewCaptureState()
	var wg sync.WaitGroup
	for k := 0; k < cfg.Workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k)))
			for i := 0; i < 200; i++ {
				s.Push(k, randUpdate(rng, cfg.LayerSizes, 4))
			}
		}(k)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := s.Capture(st); err != nil {
				t.Error(err)
				return
			}
			if _, err := checkpoint.Decode(checkpoint.Encode(st)); err != nil {
				t.Errorf("mid-training capture does not round-trip: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if _, err := s.Capture(st); err != nil {
		t.Fatal(err)
	}
	full := s.NewCaptureState()
	if _, err := s.Capture(full); err != nil {
		t.Fatal(err)
	}
	st.WallNano = full.WallNano
	if !reflect.DeepEqual(st, full) {
		t.Fatal("post-quiescence incremental capture diverged from full capture")
	}
}
