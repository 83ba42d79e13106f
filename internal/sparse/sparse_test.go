package sparse

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dgs/internal/tensor"
)

func TestKForRatio(t *testing.T) {
	cases := []struct {
		n     int
		ratio float64
		want  int
	}{
		{100, 0.01, 1},
		{1000, 0.01, 10},
		{100, 1.0, 100},
		{100, 2.0, 100}, // clamped
		{5, 0.01, 1},    // floor of 1
		{0, 0.5, 0},     // empty layer
		{7, 0.5, 3},
	}
	for _, c := range cases {
		if got := KForRatio(c.n, c.ratio); got != c.want {
			t.Errorf("KForRatio(%d,%v) = %d, want %d", c.n, c.ratio, got, c.want)
		}
	}
}

func TestTopKIndicesSmall(t *testing.T) {
	x := []float32{0.1, -5, 3, -0.2, 4}
	got := TopKIndices(x, 3)
	want := []int32{1, 2, 4} // |-5|, |3|, |4|
	if len(got) != 3 {
		t.Fatalf("got %d indices", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopKIndices = %v, want %v", got, want)
		}
	}
}

func TestTopKIndicesEdges(t *testing.T) {
	if got := TopKIndices(nil, 3); got != nil {
		t.Fatal("empty input must return nil")
	}
	if got := TopKIndices([]float32{1, 2}, 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
	got := TopKIndices([]float32{1, 2}, 5)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("k>n must return all indices ascending, got %v", got)
	}
}

func TestTopKIndicesTiesDeterministic(t *testing.T) {
	x := []float32{1, 1, 1, 1, 1}
	got := TopKIndices(x, 2)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("tie-break should pick lowest indices, got %v", got)
	}
}

// Property: every selected element's |value| >= every dropped element's
// |value| (allowing equality for ties), and exactly k are selected.
func TestTopKProperty(t *testing.T) {
	f := func(vals []float32, kRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				vals[i] = 0
			}
		}
		k := int(kRaw)%len(vals) + 1
		idx := TopKIndices(vals, k)
		if len(idx) != k {
			return false
		}
		selected := make(map[int32]bool, k)
		minSel := math.Inf(1)
		for _, i := range idx {
			selected[i] = true
			a := math.Abs(float64(vals[i]))
			if a < minSel {
				minSel = a
			}
		}
		for i, v := range vals {
			if !selected[int32(i)] && math.Abs(float64(v)) > minSel {
				return false
			}
		}
		// Ascending order.
		if !sort.SliceIsSorted(idx, func(a, b int) bool { return idx[a] < idx[b] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKLargeMatchesSort(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := make([]float32, 10000)
	rng.FillNormal(x, 0, 1)
	k := 100
	got := TopKIndices(x, k)
	// Reference: full sort.
	ref := make([]int, len(x))
	for i := range ref {
		ref[i] = i
	}
	sort.Slice(ref, func(a, b int) bool {
		aa, ab := math.Abs(float64(x[ref[a]])), math.Abs(float64(x[ref[b]]))
		if aa != ab {
			return aa > ab
		}
		return ref[a] < ref[b]
	})
	want := make(map[int]bool, k)
	for _, i := range ref[:k] {
		want[i] = true
	}
	for _, i := range got {
		if !want[int(i)] {
			t.Fatalf("index %d selected but not in reference top-%d", i, k)
		}
	}
}

func TestCutRank(t *testing.T) {
	x := []float32{0.1, -5, 3, -0.2, 4}
	var sel Selector
	if thr := sel.Cut(x, 2).Rank(); thr != 4 {
		t.Fatalf("threshold k=2 = %v, want 4", thr)
	}
	if thr := sel.Cut(x, 5).Rank(); thr != 0.1 {
		t.Fatalf("threshold k=5 = %v, want 0.1", thr)
	}
}

// TestRankTotalOrder: Rank must promote NaN to +Inf so selection has a
// strict total order — what is selected must not depend on array layout.
func TestRankTotalOrder(t *testing.T) {
	nan := float32(math.NaN())
	if r := Rank(nan); !math.IsInf(float64(r), 1) {
		t.Fatalf("Rank(NaN) = %v, want +Inf", r)
	}
	if Rank(-3) != 3 || Rank(3) != 3 || Rank(0) != 0 {
		t.Fatal("Rank must be |v| for non-NaN")
	}
	// A NaN beats every finite value in selection.
	if got := new(Selector).TopK([]float32{1e30, nan}, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("NaN not selected first: %v", got)
	}
}

func TestGatherScatter(t *testing.T) {
	x := []float32{10, 20, 30, 40}
	c := Gather(2, x, []int32{1, 3})
	if c.Layer != 2 || c.NNZ() != 2 || c.Val[0] != 20 || c.Val[1] != 40 {
		t.Fatalf("Gather wrong: %+v", c)
	}
	dst := make([]float32, 4)
	Scatter(&c, dst, 0.5)
	if dst[1] != 10 || dst[3] != 20 || dst[0] != 0 {
		t.Fatalf("Scatter wrong: %v", dst)
	}
}

func TestGatherCopiesIndices(t *testing.T) {
	idx := []int32{0, 1}
	c := Gather(0, []float32{1, 2}, idx)
	idx[0] = 99
	if c.Idx[0] != 0 {
		t.Fatal("Gather must copy the index slice")
	}
}

func TestSparsifyLayers(t *testing.T) {
	x := [][]float32{
		{0.1, 9, 0.2, 0.3},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{},
	}
	u := SparsifyLayers(x, 0.25)
	if len(u.Chunks) != 2 {
		t.Fatalf("expected 2 chunks (empty layer skipped), got %d", len(u.Chunks))
	}
	if u.Chunks[0].Layer != 0 || u.Chunks[0].NNZ() != 1 || u.Chunks[0].Val[0] != 9 {
		t.Fatalf("layer 0 chunk wrong: %+v", u.Chunks[0])
	}
	if u.Chunks[1].Layer != 1 || u.Chunks[1].NNZ() != 2 {
		t.Fatalf("layer 1 chunk wrong: %+v", u.Chunks[1])
	}
	// Source untouched.
	if x[0][1] != 9 {
		t.Fatal("SparsifyLayers must not modify input")
	}
}

func TestDenseUpdate(t *testing.T) {
	u := DenseUpdate([][]float32{{1, 2}, {3}})
	if u.NNZ() != 3 {
		t.Fatalf("dense NNZ = %d, want 3", u.NNZ())
	}
	if err := u.Validate([]int{2, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadChunks(t *testing.T) {
	u := &Update{Chunks: []Chunk{{Layer: 0, Idx: []int32{3, 1}, Val: []float32{1, 2}}}}
	if err := u.Validate([]int{5}); err == nil {
		t.Fatal("descending indices must fail validation")
	}
	u = &Update{Chunks: []Chunk{{Layer: 7, Idx: []int32{0}, Val: []float32{1}}}}
	if err := u.Validate([]int{5}); err == nil {
		t.Fatal("layer out of range must fail validation")
	}
	u = &Update{Chunks: []Chunk{{Layer: 0, Idx: []int32{9}, Val: []float32{1}}}}
	if err := u.Validate([]int{5}); err == nil {
		t.Fatal("index out of range must fail validation")
	}
	u = &Update{Chunks: []Chunk{{Layer: 0, Idx: []int32{1}, Val: []float32{1, 2}}}}
	if err := u.Validate([]int{5}); err == nil {
		t.Fatal("length mismatch must fail validation")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	u := &Update{Chunks: []Chunk{
		{Layer: 0, Idx: []int32{0, 5, 1000000}, Val: []float32{1.5, -2.25, 3e-9}},
		{Layer: 3, Idx: []int32{7}, Val: []float32{-0}},
	}}
	b := Encode(u)
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != 2 {
		t.Fatalf("chunk count %d", len(got.Chunks))
	}
	for ci := range u.Chunks {
		w, g := u.Chunks[ci], got.Chunks[ci]
		if w.Layer != g.Layer || len(w.Idx) != len(g.Idx) {
			t.Fatalf("chunk %d meta mismatch", ci)
		}
		for i := range w.Idx {
			if w.Idx[i] != g.Idx[i] || math.Float32bits(w.Val[i]) != math.Float32bits(g.Val[i]) {
				t.Fatalf("chunk %d element %d mismatch", ci, i)
			}
		}
	}
}

func TestEncodeDecodeEmpty(t *testing.T) {
	u := &Update{}
	got, err := Decode(Encode(u))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != 0 {
		t.Fatal("empty update must round-trip empty")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
	// Truncated valid prefix.
	u := &Update{Chunks: []Chunk{{Layer: 0, Idx: []int32{1, 2, 3}, Val: []float32{1, 2, 3}}}}
	b := Encode(u)
	for cut := 1; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// Property-based round trip over arbitrary sparse patterns.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(positions []uint16, seed int64) bool {
		if len(positions) == 0 {
			return true
		}
		// Build a valid ascending unique index set.
		set := map[int32]bool{}
		for _, p := range positions {
			set[int32(p)] = true
		}
		idx := make([]int32, 0, len(set))
		for p := range set {
			idx = append(idx, p)
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		rng := tensor.NewRNG(uint64(seed))
		val := make([]float32, len(idx))
		rng.FillNormal(val, 0, 10)
		u := &Update{Chunks: []Chunk{{Layer: int(rng.Intn(100)), Idx: idx, Val: val}}}
		got, err := Decode(Encode(u))
		if err != nil {
			return false
		}
		g := got.Chunks[0]
		if g.Layer != u.Chunks[0].Layer || len(g.Idx) != len(idx) {
			return false
		}
		for i := range idx {
			if g.Idx[i] != idx[i] || g.Val[i] != val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionBeatsWire(t *testing.T) {
	// A 99%-sparse update must encode far smaller than the dense model.
	rng := tensor.NewRNG(2)
	layer := make([]float32, 100000)
	rng.FillNormal(layer, 0, 1)
	u := SparsifyLayers([][]float32{layer}, 0.01)
	enc := Encode(&u)
	dense := DenseBytes([]int{len(layer)})
	if len(enc)*10 > dense {
		t.Fatalf("sparse encoding %dB vs dense %dB; expected >10x compression", len(enc), dense)
	}
}

func TestDenseBytes(t *testing.T) {
	if got := DenseBytes([]int{10, 20}); got != 120 {
		t.Fatalf("DenseBytes = %d, want 120", got)
	}
}

func BenchmarkTopK1M(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := make([]float32, 1<<20)
	rng.FillNormal(x, 0, 1)
	k := len(x) / 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKIndices(x, k)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := make([]float32, 1<<18)
	rng.FillNormal(x, 0, 1)
	u := SparsifyLayers([][]float32{x}, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(&u)
	}
}

// BenchmarkEncodeEmbedRows encodes a downward frame shaped like the
// server-bound fleet's: four 2¹⁹-element embedding tables, each with 256
// whole 64-element rows changed (64 Ki nonzeros, mostly zero gaps).
func BenchmarkEncodeEmbedRows(b *testing.B) {
	rng := tensor.NewRNG(1)
	const table, width, rows = 1 << 19, 64, 256
	u := &Update{}
	for layer := 0; layer < 4; layer++ {
		c := u.NextChunk()
		c.Layer = layer
		for _, r := range rng.Perm(table / width)[:rows] {
			for j := 0; j < width; j++ {
				c.Idx = append(c.Idx, int32(r*width+j))
			}
		}
		sort.Slice(c.Idx, func(i, j int) bool { return c.Idx[i] < c.Idx[j] })
		c.Val = make([]float32, len(c.Idx))
		rng.FillNormal(c.Val, 0, 1)
	}
	b.SetBytes(int64(len(Encode(u))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(u)
	}
}

func TestDenseChunkEncodesWithoutIndexOverhead(t *testing.T) {
	// A dense chunk must cost ~4 bytes/value so the ASGD baseline's traffic
	// is not artificially inflated by index bytes.
	n := 10000
	vals := make([]float32, n)
	tensor.NewRNG(7).FillNormal(vals, 0, 1)
	u := DenseUpdate([][]float32{vals})
	enc := Encode(&u)
	overhead := len(enc) - 4*n
	if overhead < 0 || overhead > 32 {
		t.Fatalf("dense encoding overhead %dB; want a small constant header", overhead)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	c := got.Chunks[0]
	for i := range vals {
		if c.Idx[i] != int32(i) || c.Val[i] != vals[i] {
			t.Fatalf("dense round-trip wrong at %d", i)
		}
	}
}

func TestAlmostDenseChunkStillSparseEncoded(t *testing.T) {
	// Missing interior index: not dense (last index check fails), must
	// round-trip through the sparse path.
	u := &Update{Chunks: []Chunk{{Layer: 0, Idx: []int32{0, 2, 3}, Val: []float32{1, 2, 3}}}}
	got, err := Decode(Encode(u))
	if err != nil {
		t.Fatal(err)
	}
	c := got.Chunks[0]
	if c.Idx[0] != 0 || c.Idx[1] != 2 || c.Idx[2] != 3 {
		t.Fatalf("sparse round-trip wrong: %v", c.Idx)
	}
}
