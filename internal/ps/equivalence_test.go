package ps

import (
	"math"
	"testing"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// pusherUnderTest is the common surface of Server and BaselineServer the
// equivalence schedules drive.
type pusherUnderTest interface {
	Push(worker int, g *sparse.Update) (sparse.Update, uint64)
	Resync(worker int)
	Stats() Stats
	MSnapshot(dst [][]float32) uint64
	VSnapshot(worker int, dst [][]float32) uint64
}

// requireSameUpdate asserts two downward updates are bitwise identical:
// same chunks, same layers, same index sets, same value bit patterns
// (Float32bits, so NaN payloads and signed zeros must match too).
func requireSameUpdate(t *testing.T, step int, got, want *sparse.Update) {
	t.Helper()
	if len(got.Chunks) != len(want.Chunks) {
		t.Fatalf("step %d: %d chunks, baseline has %d", step, len(got.Chunks), len(want.Chunks))
	}
	for i := range want.Chunks {
		g, w := &got.Chunks[i], &want.Chunks[i]
		if g.Layer != w.Layer {
			t.Fatalf("step %d chunk %d: layer %d vs baseline %d", step, i, g.Layer, w.Layer)
		}
		if len(g.Idx) != len(w.Idx) {
			t.Fatalf("step %d chunk %d (layer %d): nnz %d vs baseline %d", step, i, g.Layer, len(g.Idx), len(w.Idx))
		}
		for j := range w.Idx {
			if g.Idx[j] != w.Idx[j] {
				t.Fatalf("step %d chunk %d (layer %d) entry %d: idx %d vs baseline %d",
					step, i, g.Layer, j, g.Idx[j], w.Idx[j])
			}
			if math.Float32bits(g.Val[j]) != math.Float32bits(w.Val[j]) {
				t.Fatalf("step %d chunk %d (layer %d) idx %d: value %x (%v) vs baseline %x (%v)",
					step, i, g.Layer, g.Idx[j],
					math.Float32bits(g.Val[j]), g.Val[j],
					math.Float32bits(w.Val[j]), w.Val[j])
			}
		}
	}
}

func requireSameState(t *testing.T, label string, sizes []int, got, want pusherUnderTest, workers int) {
	t.Helper()
	a, b := alloc(sizes), alloc(sizes)
	got.MSnapshot(a)
	want.MSnapshot(b)
	for l := range a {
		for j := range a[l] {
			if math.Float32bits(a[l][j]) != math.Float32bits(b[l][j]) {
				t.Fatalf("%s: M[%d][%d] = %v, baseline %v", label, l, j, a[l][j], b[l][j])
			}
		}
	}
	for k := 0; k < workers; k++ {
		got.VSnapshot(k, a)
		want.VSnapshot(k, b)
		for l := range a {
			for j := range a[l] {
				if math.Float32bits(a[l][j]) != math.Float32bits(b[l][j]) {
					t.Fatalf("%s: v[%d][%d][%d] = %v, baseline %v", label, k, l, j, a[l][j], b[l][j])
				}
			}
		}
	}
	gs, ws := got.Stats(), want.Stats()
	// The baseline has no diff tracking and no secondary candidate counter;
	// those counters are expected to diverge.
	gs.DiffBlocksScanned, gs.DiffBlocksSkipped = 0, 0
	gs.SecondaryCandidates = 0
	if gs != ws {
		t.Fatalf("%s: stats %+v, baseline %+v", label, gs, ws)
	}
}

// TestPushEquivalence drives identical randomised schedules (mixed-worker
// pushes, empty pushes, resyncs, values spanning 2^±25 so float rounding
// residuals actually occur) through the dirty-tracking Server and the
// frozen single-mutex BaselineServer, and requires every downward update,
// every timestamp, the final M and v_k state, and the staleness counters to
// be bitwise identical. The dirty-range diff and the lock decomposition are
// pure optimisations; any observable divergence is a bug.
func TestPushEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{LayerSizes: []int{17, 1000, 3}, Workers: 3, Quiet: true}},
		{"tiny_blocks", Config{LayerSizes: []int{17, 1000, 3}, Workers: 3, BlockShift: 4, Quiet: true}},
		{"one_big_layer", Config{LayerSizes: []int{4096}, Workers: 2, BlockShift: 5, Quiet: true}},
		// Blocks of 4 are shorter than one vector register: every gather
		// runs tensor.DiffFold's scalar tail, on every host.
		{"block4", Config{LayerSizes: []int{17, 1000, 3}, Workers: 3, BlockShift: 2, Quiet: true}},
		{"secondary", Config{LayerSizes: []int{64, 257}, Workers: 3, Secondary: true, SecondaryRatio: 0.1, Quiet: true}},
		// KForRatio boundaries: a ratio small enough that every layer floors
		// at k = 1, and ratio 1.0 where k = n always exceeds nnz and the
		// clamp to the exact layer-wide nonzero count must agree with the
		// baseline's full-scan nnz on every exchange.
		{"secondary_k_floor", Config{LayerSizes: []int{64, 257}, Workers: 3, Secondary: true, SecondaryRatio: 1e-9, Quiet: true}},
		{"secondary_half", Config{LayerSizes: []int{17, 1000, 3}, Workers: 3, Secondary: true, SecondaryRatio: 0.5, Quiet: true}},
		{"secondary_keep_all", Config{LayerSizes: []int{64, 257}, Workers: 2, Secondary: true, SecondaryRatio: 1.0, Quiet: true}},
		// Tiny blocks spread the suppressed residual over many blocks, so
		// most gathers skip some blocks and rescan others by their resid bit.
		{"secondary_tiny_blocks", Config{LayerSizes: []int{17, 1000, 3}, Workers: 3, Secondary: true, SecondaryRatio: 0.1, BlockShift: 4, Quiet: true}},
		// A layer past the candidate bound (k = 450, bound 4096): its gathers
		// take the warm path and both histogram fallbacks.
		{"secondary_large_layer", Config{LayerSizes: []int{9000, 64}, Workers: 3, Secondary: true, SecondaryRatio: 0.05, Quiet: true}},
		{"dense_downward", Config{LayerSizes: []int{33, 80}, Workers: 2, DenseDownward: true, Quiet: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(0xD65)
			cur := NewServer(tc.cfg)
			base := NewBaselineServer(tc.cfg)
			sizes := tc.cfg.LayerSizes
			workers := tc.cfg.Workers
			for step := 0; step < 400; step++ {
				k := rng.Intn(workers)
				switch {
				case rng.Intn(20) == 0:
					cur.Resync(k)
					base.Resync(k)
				case rng.Intn(10) == 0:
					// Empty push: pure download, flushes pending diffs.
					var g1, g2 sparse.Update
					G1, t1 := cur.Push(k, &g1)
					G2, t2 := base.Push(k, &g2)
					if t1 != t2 {
						t.Fatalf("step %d: timestamp %d vs baseline %d", step, t1, t2)
					}
					requireSameUpdate(t, step, &G1, &G2)
				default:
					g := randomUpdate(rng, sizes, 0.2)
					// Scale values across ~2^50 of dynamic range so
					// v + (M − v) rounds away from M now and then,
					// exercising the residual-bitmap rescan path.
					scale := float32(math.Pow(2, float64(rng.Intn(51)-25)))
					for ci := range g.Chunks {
						for vi := range g.Chunks[ci].Val {
							g.Chunks[ci].Val[vi] *= scale
						}
					}
					G1, t1 := cur.Push(k, &g)
					G2, t2 := base.Push(k, &g)
					if t1 != t2 {
						t.Fatalf("step %d: timestamp %d vs baseline %d", step, t1, t2)
					}
					requireSameUpdate(t, step, &G1, &G2)
				}
			}
			requireSameState(t, "final", sizes, cur, base, workers)
		})
	}
}

// TestPushEquivalenceUlpGap is the directed float-rounding scenario: worker
// 0's v acquires a value v0 such that fl(v0 + fl(M − v0)) ≠ M, the touched
// block then goes version-clean (other workers push elsewhere), and the
// server must still rescan it via the residual bitmap to re-send the
// correction the full scan would have sent. Skipping it would strand v_0 one
// ulp-gap away from M forever — silently breaking Eq. 5 for that worker.
func TestPushEquivalenceUlpGap(t *testing.T) {
	// Two layers, tiny blocks so layer 0 spans several blocks.
	cfg := Config{LayerSizes: []int{64, 64}, Workers: 2, BlockShift: 4, Quiet: true}
	cur := NewServer(cfg)
	base := NewBaselineServer(cfg)

	push := func(step, k int, g *sparse.Update) (sparse.Update, sparse.Update) {
		t.Helper()
		G1, t1 := cur.Push(k, g)
		G2, t2 := base.Push(k, g)
		if t1 != t2 {
			t.Fatalf("step %d: timestamp %d vs baseline %d", step, t1, t2)
		}
		requireSameUpdate(t, step, &G1, &G2)
		return G1, G2
	}
	upd := func(layer int, idx int32, val float32) *sparse.Update {
		return &sparse.Update{Chunks: []sparse.Chunk{{Layer: layer, Idx: []int32{idx}, Val: []float32{val}}}}
	}
	empty := func(step, k int) sparse.Update {
		var g1, g2 sparse.Update
		G1, t1 := cur.Push(k, &g1)
		G2, t2 := base.Push(k, &g2)
		if t1 != t2 {
			t.Fatalf("step %d: timestamp %d vs baseline %d", step, t1, t2)
		}
		requireSameUpdate(t, step, &G1, &G2)
		return G1
	}

	const big = float32(1 << 25) // 2^25: adding 1 to it is not representable
	// t1: worker 1 pushes −2^25 at (0,0) → M[0][0] = 2^25.
	push(1, 1, upd(0, 0, -big))
	// t2: worker 0 empty push → receives 2^25, v0[0][0] = 2^25.
	empty(2, 0)
	// t3: worker 1 pushes +2^25 → M[0][0] = 0.
	push(3, 1, upd(0, 0, big))
	// t4: worker 1 pushes −1 → M[0][0] = 1.
	push(4, 1, upd(0, 0, -1))
	// t5: worker 0 empty push: diff = fl(1 − 2^25) = −(2^25 − 32), applying
	// it leaves v0[0][0] = 32 ≠ 1 — the rounding gap. The residual bit for
	// block 0 of layer 0 must now be set.
	empty(5, 0)
	// t6: worker 1 pushes in the *other layer*, so layer 0 block 0 stays
	// version-clean for worker 0 from here on.
	push(6, 1, upd(1, 7, 0.5))
	// t7: worker 0 empty push: the dirty tracking alone would skip layer 0
	// entirely; the residual bit forces the rescan and the correction ships,
	// exactly as the baseline's full scan does. Iterate until the gap fully
	// closes (each pass shrinks it).
	for step := 7; step < 40; step++ {
		G := empty(step, 0)
		if len(G.Chunks) == 0 {
			break
		}
	}
	requireSameState(t, "ulp-gap final", cfg.LayerSizes, cur, base, cfg.Workers)

	// And the invariant the whole dance protects: v_0 == M bit for bit.
	m, v := alloc(cfg.LayerSizes), alloc(cfg.LayerSizes)
	cur.MSnapshot(m)
	cur.VSnapshot(0, v)
	for l := range m {
		for j := range m[l] {
			if math.Float32bits(m[l][j]) != math.Float32bits(v[l][j]) {
				t.Fatalf("Eq.5 violated at [%d][%d]: M=%v v0=%v", l, j, m[l][j], v[l][j])
			}
		}
	}
}

// TestDiffSkipsCleanBlocks pins down that the dirty tracking actually
// skips: after one worker's update lands in a single block of a large
// layer, another worker's exchange must scan O(1) blocks, not the model.
func TestDiffSkipsCleanBlocks(t *testing.T) {
	cfg := Config{LayerSizes: []int{1 << 16}, Workers: 2, Quiet: true}
	s := NewServer(cfg)
	blocks := uint64(sparse.NumBlocks(cfg.LayerSizes[0], s.blockShift))
	// Sync both workers once; never-touched blocks (version 0) are already
	// skippable, so these exchanges only move the per-worker horizons.
	var g0 sparse.Update
	s.Push(0, &g0)
	s.Push(1, &g0)
	before := s.Stats()

	g := sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{5000}, Val: []float32{1}}}}
	s.Push(0, &g)
	var g1 sparse.Update
	s.Push(1, &g1)
	after := s.Stats()

	scanned := after.DiffBlocksScanned - before.DiffBlocksScanned
	skipped := after.DiffBlocksSkipped - before.DiffBlocksSkipped
	// Two exchanges over the layer with one dirty block: worker 0's push
	// scans the block it just dirtied, worker 1's scans the same single
	// block. Everything else must be skipped.
	if scanned != 2 {
		t.Fatalf("scanned %d blocks, want 2 (dirty tracking not skipping)", scanned)
	}
	if want := 2*blocks - 2; skipped != want {
		t.Fatalf("skipped %d blocks, want %d", skipped, want)
	}
}
