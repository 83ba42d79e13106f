package ps

import (
	"math"
	"testing"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// foldTestPush drives one exchange for worker k and returns the downward
// difference the server computed.
func foldTestPush(t *testing.T, s *Server, k int, g *sparse.Update) sparse.Update {
	t.Helper()
	G, _ := s.Push(k, g)
	return G
}

func foldTestUpdate(rng *tensor.RNG, sizes []int) *sparse.Update {
	u := &sparse.Update{}
	for layer, n := range sizes {
		c := u.NextChunk()
		c.Layer = layer
		for j := 0; j < n; j += 3 {
			c.Idx = append(c.Idx, int32(j))
		}
		c.Val = make([]float32, len(c.Idx))
		rng.FillNormal(c.Val, 0, 1)
	}
	return u
}

// TestFoldDownRestoresSentAccounting checks the core FoldDown semantics:
// subtracting the withheld error from v_k at exactly the error's
// coordinates, leaving everything else untouched, and setting the dirty
// bookkeeping so a later exchange re-ships the error instead of the diff
// scan proving the blocks clean and skipping them forever.
func TestFoldDownRestoresSentAccounting(t *testing.T) {
	sizes := []int{64, 10}
	s := NewServer(Config{LayerSizes: sizes, Workers: 2, Quiet: true})
	rng := tensor.NewRNG(21)

	// Two pushes from worker 1 move M so worker 0's exchange has a real
	// downward difference; worker 0's push then brings v_0 up to M.
	foldTestPush(t, s, 1, foldTestUpdate(rng, sizes))
	foldTestPush(t, s, 1, foldTestUpdate(rng, sizes))
	foldTestPush(t, s, 0, foldTestUpdate(rng, sizes))

	before := snapshot(sizes)
	s.VSnapshot(0, before)

	// Withhold a little of what was "sent": an error at a few coordinates,
	// as if the downward frame had been quantized.
	e := &sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{0, 6, 33}, Val: []float32{0.25, -0.5, 0.125}},
		{Layer: 1, Idx: []int32{9}, Val: []float32{1.5}},
	}}
	s.FoldDown(0, e)

	after := snapshot(sizes)
	s.VSnapshot(0, after)
	touched := map[[2]int]float32{}
	for i := range e.Chunks {
		c := &e.Chunks[i]
		for j, idx := range c.Idx {
			touched[[2]int{c.Layer, int(idx)}] = c.Val[j]
		}
	}
	for layer := range before {
		for j := range before[layer] {
			want := before[layer][j]
			if ev, ok := touched[[2]int{layer, j}]; ok {
				want -= ev
			}
			if math.Float32bits(after[layer][j]) != math.Float32bits(want) {
				t.Fatalf("v[%d][%d] = %v, want %v", layer, j, after[layer][j], want)
			}
		}
	}

	// The folded error must come back on the next exchange: an empty push
	// returns exactly the coordinates whose diff is now nonzero, and the
	// drain must end with v_0 == M bitwise.
	G := foldTestPush(t, s, 0, &sparse.Update{})
	if G.NNZ() == 0 {
		t.Fatal("folded error was not re-shipped — dirty bookkeeping lost it")
	}
	for i := 0; i < 8; i++ {
		if G = foldTestPush(t, s, 0, &sparse.Update{}); G.NNZ() == 0 {
			break
		}
	}
	if G.NNZ() != 0 {
		t.Fatal("difference did not drain after fold")
	}
	m := snapshot(sizes)
	s.MSnapshot(m)
	s.VSnapshot(0, after)
	for layer := range m {
		for j := range m[layer] {
			if math.Float32bits(after[layer][j]) != math.Float32bits(m[layer][j]) {
				t.Fatalf("after drain v[%d][%d] = %v != M = %v", layer, j, after[layer][j], m[layer][j])
			}
		}
	}
}

// TestFoldDownEdgeCases: empty error updates are no-ops, out-of-range
// workers panic (wiring bug, not input).
func TestFoldDownEdgeCases(t *testing.T) {
	sizes := []int{16}
	s := NewServer(Config{LayerSizes: sizes, Workers: 1, Quiet: true})
	s.FoldDown(0, &sparse.Update{}) // must not disturb anything
	if G, _ := s.Push(0, &sparse.Update{}); G.NNZ() != 0 {
		t.Fatal("empty fold produced a difference")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range worker must panic")
		}
	}()
	s.FoldDown(5, &sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{0}, Val: []float32{1}}}})
}

// TestFoldDownSecondaryResidBits: under secondary compression a fold can
// land in version-clean blocks, suppressed residual or not. FoldDown must
// set every touched block's residual bit, so the tracker invariant holds
// and the next gathers re-ship the error until v_k == M.
func TestFoldDownSecondaryResidBits(t *testing.T) {
	sizes := []int{256, 32}
	s := NewServer(Config{LayerSizes: sizes, Workers: 2, Secondary: true, SecondaryRatio: 0.05, Quiet: true})
	rng := tensor.NewRNG(22)
	foldTestPush(t, s, 1, foldTestUpdate(rng, sizes))
	foldTestPush(t, s, 0, foldTestUpdate(rng, sizes))

	e := &sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{0, 5, 100, 101, 255}, Val: []float32{0.5, -0.25, 2, -2, 0.75}},
		{Layer: 1, Idx: []int32{31}, Val: []float32{-0.5}},
	}}
	s.FoldDown(0, e)
	requireResidInvariant(t, "after fold", s)
	w := &s.workers[0]
	for layer := range sizes {
		for b := 0; b < sparse.NumBlocks(sizes[layer], s.blockShift); b++ {
			if blockTouched(e, layer, b, s.blockShift) && w.resid[layer][b>>6]&(1<<uint(b&63)) == 0 {
				t.Fatalf("layer %d block %d: folded but its residual bit is clear", layer, b)
			}
		}
	}
	drainGather(t, s, 0, 1000)
	requireResidInvariant(t, "after drain", s)
	m, v := snapshot(sizes), snapshot(sizes)
	s.MSnapshot(m)
	s.VSnapshot(0, v)
	for layer := range m {
		for j := range m[layer] {
			if math.Float32bits(v[layer][j]) != math.Float32bits(m[layer][j]) {
				t.Fatalf("after drain v[%d][%d] = %v != M = %v", layer, j, v[layer][j], m[layer][j])
			}
		}
	}
}

func blockTouched(e *sparse.Update, layer, b int, shift uint) bool {
	for i := range e.Chunks {
		c := &e.Chunks[i]
		if c.Layer != layer {
			continue
		}
		for _, idx := range c.Idx {
			if int(idx)>>shift == b {
				return true
			}
		}
	}
	return false
}

// TestShardedFoldDown: the sharded server must route each error chunk to
// the shard owning its layer (with layer ids remapped), with the same
// fold-then-reship behaviour as the flat server.
func TestShardedFoldDown(t *testing.T) {
	sizes := []int{64, 48, 32, 16}
	s := NewShardedServer(Config{LayerSizes: sizes, Workers: 2, Quiet: true}, 2)
	rng := tensor.NewRNG(23)
	u := foldTestUpdate(rng, sizes)
	s.Push(1, u)
	s.Push(0, foldTestUpdate(rng, sizes))

	e := &sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{3}, Val: []float32{0.5}},
		{Layer: 3, Idx: []int32{15}, Val: []float32{-0.25}},
	}}
	s.FoldDown(0, e)

	G, _ := s.Push(0, &sparse.Update{})
	got := map[[2]int]bool{}
	for i := range G.Chunks {
		c := &G.Chunks[i]
		for _, idx := range c.Idx {
			got[[2]int{c.Layer, int(idx)}] = true
		}
	}
	for _, want := range [][2]int{{0, 3}, {3, 15}} {
		if !got[want] {
			t.Fatalf("folded error at layer %d idx %d not re-shipped (got %v)", want[0], want[1], got)
		}
	}
}

func snapshot(sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i] = make([]float32, n)
	}
	return out
}
