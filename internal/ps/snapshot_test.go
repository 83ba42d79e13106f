package ps

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// TestSnapshotEquivalence interleaves pushes with snapshot reads and checks
// both read paths (MSnapshot, incremental Snapshot) against the frozen
// full-lock MSnapshotLocked bitwise at every cut. The interleaving matters:
// each round dirties a different subset of blocks, so the reader's
// incremental cut exercises its skip path. Every round also plants a NaN
// sentinel in a block of the reader's buffer that the next push leaves
// clean, and one in a block it dirties: the next cut must not copy the
// clean block (the sentinel survives) and must refresh the dirty one.
func TestSnapshotEquivalence(t *testing.T) {
	sizes := []int{1 << 14, 257, 33}
	const workers = 3
	s := NewServer(Config{LayerSizes: sizes, Workers: workers, BlockShift: 6, Quiet: true})
	rng := tensor.NewRNG(7)
	st := s.NewSnapshotState()
	shift := s.blockShift
	nan := float32(math.NaN())
	for round := 0; round < 20; round++ {
		k := round % workers
		g := randomUpdate(rng, sizes, 0.005)
		// Sentinels: the first block g leaves alone, and g's first block.
		touched := map[int]bool{}
		for _, j := range g.Chunks[0].Idx {
			touched[int(j)>>shift] = true
		}
		clean := 0
		for touched[clean] {
			clean++
		}
		dirtyJ := int(g.Chunks[0].Idx[0])
		cleanJ := clean << shift
		var cleanWas float32
		if round > 0 {
			cleanWas = st.m[0][cleanJ]
			st.m[0][cleanJ], st.m[0][dirtyJ] = nan, nan
		}
		s.Push(k, &g)

		locked := alloc(sizes)
		s.MSnapshotLocked(locked)
		cov := alloc(sizes)
		s.MSnapshot(cov)
		ts := s.Snapshot(st)
		if ts != s.Timestamp() {
			t.Fatalf("round %d: snapshot stamped %d, clock is %d", round, ts, s.Timestamp())
		}
		inc := st.Model()
		if round > 0 {
			if !math.IsNaN(float64(inc[0][cleanJ])) {
				t.Fatalf("round %d: clean block %d re-copied (sentinel overwritten)", round, clean)
			}
			if math.IsNaN(float64(inc[0][dirtyJ])) {
				t.Fatalf("round %d: dirty coordinate %d not refreshed", round, dirtyJ)
			}
			inc[0][cleanJ] = cleanWas
		}
		for l := range sizes {
			for j := range locked[l] {
				if cov[l][j] != locked[l][j] {
					t.Fatalf("round %d: MSnapshot[%d][%d]=%v, locked=%v", round, l, j, cov[l][j], locked[l][j])
				}
				if inc[l][j] != locked[l][j] {
					t.Fatalf("round %d: Snapshot[%d][%d]=%v, locked=%v", round, l, j, inc[l][j], locked[l][j])
				}
			}
		}
	}
}

// TestSnapshotRestoredServer: a fresh cut of a server rebuilt from a
// checkpoint equals its MSnapshot bitwise. The restore copies the block
// stamps with M, so every block a push ever touched is stamped above a fresh
// state's clock 0 and the first cut copies it.
func TestSnapshotRestoredServer(t *testing.T) {
	cfg := captureConfig()
	s := NewServer(cfg)
	drive(t, s, rand.New(rand.NewSource(5)), cfg.LayerSizes, 30)
	cs := s.NewCaptureState()
	if _, err := s.Capture(cs); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreServer(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	full := alloc(cfg.LayerSizes)
	tFull := r.MSnapshot(full)
	st := r.NewSnapshotState()
	if ts := r.Snapshot(st); ts != tFull || ts != s.Timestamp() {
		t.Fatalf("restored cut stamped %d, MSnapshot %d, original clock %d", ts, tFull, s.Timestamp())
	}
	for l, layer := range full {
		for j, v := range layer {
			if math.Float32bits(st.Model()[l][j]) != math.Float32bits(v) {
				t.Fatalf("restored cut [%d][%d]=%v, MSnapshot %v", l, j, st.Model()[l][j], v)
			}
		}
	}
}

// TestSnapshotSteadyStateAllocs: an incremental cut allocates nothing.
func TestSnapshotSteadyStateAllocs(t *testing.T) {
	sizes := []int{1 << 12, 257}
	s := NewServer(Config{LayerSizes: sizes, Workers: 1, Quiet: true})
	g := randomUpdate(tensor.NewRNG(3), sizes, 0.01)
	st := s.NewSnapshotState()
	s.Push(0, &g)
	s.Snapshot(st)
	if allocs := testing.AllocsPerRun(10, func() {
		s.Push(0, &g)
		s.Snapshot(st)
	}); allocs > 0 {
		t.Fatalf("incremental Snapshot allocates %v objects, want 0", allocs)
	}
}

// TestSnapshotPrefixConsistentUnderChurn is the snapshot-under-churn property
// test: every incremental cut taken while workers push concurrently must
// equal a prefix-consistent server state — the state a BaselineServer reaches
// after replaying, for each worker, exactly the pushes that had completed
// their apply at the cut — bitwise, with the cut's stamp equal to the total
// number of those pushes.
//
// Workers own disjoint coordinate sets (so per-coordinate float accumulation
// order is each worker's own push order, making the replay bitwise
// well-defined) and each increments a private counter coordinate by exactly 1
// per push, which lets the verifier recover the per-worker prefix length
// c_k from the cut itself.
func TestSnapshotPrefixConsistentUnderChurn(t *testing.T) {
	const (
		workers = 4
		rounds  = 60
		n       = 1 << 12
	)
	sizes := []int{n}
	s := NewServer(Config{LayerSizes: sizes, Workers: workers, BlockShift: 6, Quiet: true})

	// Pre-generate every worker's pushes so the replay below is exact.
	pushes := make([][]sparse.Update, workers)
	for k := 0; k < workers; k++ {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		for r := 0; r < rounds; r++ {
			var idx []int32
			var val []float32
			// Counter coordinate: worker k owns coordinate k and adds exactly
			// −1 there per push (M gains +1).
			idx = append(idx, int32(k))
			val = append(val, -1)
			// Payload coordinates ≡ k (mod workers), disjoint across workers.
			for j := workers + k; j < n; j += workers * (1 + rng.Intn(64)) {
				idx = append(idx, int32(j))
				val = append(val, rng.Float32()*2-1)
			}
			pushes[k] = append(pushes[k], sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: idx, Val: val}}})
		}
	}

	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				g := pushes[k][r]
				s.Push(k, &g)
				if r%4 == 3 {
					// Yield so reader cuts land between pushes, not only at
					// the churn's edges.
					runtime.Gosched()
				}
			}
		}(k)
	}

	// Reader: incremental cuts while the churn runs.
	type cut struct {
		t uint64
		m []float32
	}
	var cuts []cut
	done := make(chan struct{})
	go func() {
		defer close(done)
		st := s.NewSnapshotState()
		var lastT uint64
		for len(cuts) < 200 {
			ts := s.Snapshot(st)
			if ts < lastT {
				t.Errorf("snapshot stamp went backwards: %d after %d", ts, lastT)
				return
			}
			lastT = ts
			cuts = append(cuts, cut{t: ts, m: append([]float32(nil), st.Model()[0]...)})
			// Keep cutting past the end of the churn until a minimum number
			// of cuts raced it (scheduling under -race can starve the reader).
			if ts >= uint64(workers*rounds) && len(cuts) >= 20 {
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	<-done

	// Verify every cut against a BaselineServer prefix replay.
	base := NewBaselineServer(Config{LayerSizes: sizes, Workers: workers})
	applied := make([]int, workers)
	mb := alloc(sizes)
	for ci, c := range cuts {
		// Recover the per-worker prefix from the counter coordinates.
		total := uint64(0)
		want := make([]int, workers)
		for k := 0; k < workers; k++ {
			want[k] = int(c.m[k])
			total += uint64(want[k])
			if want[k] < 0 || want[k] > rounds {
				t.Fatalf("cut %d: recovered prefix %d for worker %d out of range", ci, want[k], k)
			}
			if want[k] < applied[k] {
				t.Fatalf("cut %d: worker %d prefix shrank %d → %d across cuts", ci, k, applied[k], want[k])
			}
		}
		if total != c.t {
			t.Fatalf("cut %d: stamp %d but counters sum to %d — cut is not a consistent prefix", ci, c.t, total)
		}
		// Advance the replay to this cut's prefix (cuts are monotone, so the
		// baseline only ever moves forward).
		for k := 0; k < workers; k++ {
			for ; applied[k] < want[k]; applied[k]++ {
				g := pushes[k][applied[k]]
				base.Push(k, &g)
			}
		}
		base.MSnapshot(mb)
		for j := range mb[0] {
			if mb[0][j] != c.m[j] {
				t.Fatalf("cut %d (t=%d): M[%d]=%v, prefix-consistent baseline has %v", ci, c.t, j, c.m[j], mb[0][j])
			}
		}
	}
	if len(cuts) < 2 {
		t.Fatalf("reader only captured %d cuts", len(cuts))
	}
}

// TestVSnapshotTCut pins the stamped (T) cut VSnapshot takes: a cut taken
// while the worker is pushing returns (t, v) where v is exactly the worker's
// state after the exchange stamped t — never a mid-gather v_k, never a stamp
// from a different exchange. A single worker pushes (so the clock advances
// only at its own exchanges) while a poller cuts concurrently; every
// observation must match the worker's own post-exchange history at the
// returned stamp.
func TestVSnapshotTCut(t *testing.T) {
	sizes := []int{1 << 10, 129}
	const rounds = 40
	s := NewServer(Config{LayerSizes: sizes, Workers: 1, BlockShift: 6, Quiet: true})
	rng := tensor.NewRNG(11)

	type obs struct {
		t uint64
		v [][]float32
	}
	var observations []obs
	var nObs atomic.Int64
	var stop sync.WaitGroup
	done := make(chan struct{})
	stop.Add(1)
	go func() {
		defer stop.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			dst := alloc(sizes)
			ts := s.VSnapshot(0, dst)
			observations = append(observations, obs{t: ts, v: dst})
			nObs.Store(int64(len(observations)))
			if len(observations) >= 500 {
				return
			}
		}
	}()

	// history[t] is v_0 right after the exchange stamped t. The worker's
	// replayed accumulation is bitwise v_0: gatherDown folds the same values
	// in the same per-coordinate order the returned chunks carry.
	history := make(map[uint64][][]float32, rounds+1)
	history[0] = alloc(sizes)
	acc := alloc(sizes)
	for r := 0; r < rounds; r++ {
		g := randomUpdate(rng, sizes, 0.1)
		G, ts := s.Push(0, &g)
		apply(&G, acc, 1)
		cp := alloc(sizes)
		for l := range acc {
			copy(cp[l], acc[l])
		}
		history[ts] = cp
		if r%8 == 7 {
			// Give the poller a chance to cut mid-churn, not just after it.
			runtime.Gosched()
		}
	}
	// Make sure at least a few cuts raced the pushes before stopping the
	// poller (the drill is vacuous with zero observations).
	for nObs.Load() < 10 {
		runtime.Gosched()
	}
	close(done)
	stop.Wait()

	if len(observations) == 0 {
		t.Fatal("poller made no observations")
	}
	for i, o := range observations {
		want, ok := history[o.t]
		if !ok {
			t.Fatalf("observation %d: stamp %d matches no completed exchange — cut is not consistent", i, o.t)
		}
		for l := range want {
			for j := range want[l] {
				if o.v[l][j] != want[l][j] {
					t.Fatalf("observation %d (t=%d): v[%d][%d]=%v, post-exchange state has %v",
						i, o.t, l, j, o.v[l][j], want[l][j])
				}
			}
		}
	}
}

// TestSnapshotEngineStress joins the -race stress family: the full
// runServerStress drill (pushes, resyncs, Stats/Timestamp pollers) with the
// snapshot pollers routed through an incremental SnapshotState reader, the
// frozen MSnapshotLocked path and the stamped VSnapshot all racing each
// other.
func TestSnapshotEngineStress(t *testing.T) {
	sizes := []int{1 << 11, 257, 33}
	const workers = 8
	s := NewServer(Config{LayerSizes: sizes, Workers: workers, BlockShift: 7, Quiet: true})
	st := s.NewSnapshotState()
	snapM := func(dst [][]float32) {
		// Alternate incremental cuts with the frozen lock path so both race
		// the pushes.
		if ts := s.Snapshot(st); ts > s.Timestamp() {
			t.Errorf("cut stamped %d ahead of server clock %d", ts, s.Timestamp())
		}
		for l, layer := range st.Model() {
			copy(dst[l], layer)
		}
		s.MSnapshotLocked(dst)
	}
	snapV := func(worker int, dst [][]float32) {
		if ts := s.VSnapshot(worker, dst); ts > s.Timestamp() {
			t.Errorf("v cut stamped %d ahead of clock", ts)
		}
	}
	runServerStress(t, s, snapM, snapV, sizes, workers, 30)
}
