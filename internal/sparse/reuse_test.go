package sparse

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"dgs/internal/tensor"
)

func randUpdate(rng *tensor.RNG, sizes []int, ratio float64) *Update {
	u := &Update{}
	var sel Selector
	for layer, n := range sizes {
		x := make([]float32, n)
		rng.FillNormal(x, 0, 1)
		k := KForRatio(n, ratio)
		idx := sel.TopK(x, k)
		c := u.NextChunk()
		GatherInto(c, layer, x, idx)
	}
	return u
}

func updatesEqual(a, b *Update) bool {
	if len(a.Chunks) != len(b.Chunks) {
		return false
	}
	for i := range a.Chunks {
		ca, cb := &a.Chunks[i], &b.Chunks[i]
		if ca.Layer != cb.Layer || len(ca.Idx) != len(cb.Idx) {
			return false
		}
		for j := range ca.Idx {
			if ca.Idx[j] != cb.Idx[j] || ca.Val[j] != cb.Val[j] {
				return false
			}
		}
	}
	return true
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	u := randUpdate(tensor.NewRNG(31), []int{1000, 50, 4096}, 0.02)
	plain := Encode(u)
	prefix := []byte("hdr:")
	appended := AppendEncode(append([]byte(nil), prefix...), u)
	if !bytes.Equal(appended[:len(prefix)], prefix) {
		t.Fatal("AppendEncode must preserve the existing prefix")
	}
	if !bytes.Equal(appended[len(prefix):], plain) {
		t.Fatal("AppendEncode payload must match Encode")
	}
}

func TestDecodeIntoReusesAndShrinks(t *testing.T) {
	rng := tensor.NewRNG(32)
	big := randUpdate(rng, []int{4096, 4096, 4096, 512}, 0.05)
	small := randUpdate(rng, []int{64}, 0.5)
	var dec Update
	for _, u := range []*Update{big, small, big, small} {
		buf := Encode(u)
		if err := DecodeInto(&dec, buf); err != nil {
			t.Fatal(err)
		}
		if !updatesEqual(&dec, u) {
			t.Fatal("DecodeInto result differs from source update")
		}
	}
}

func TestCodecSteadyStateAllocs(t *testing.T) {
	u := randUpdate(tensor.NewRNG(33), []int{8192, 256, 2048}, 0.01)
	var buf []byte
	var dec Update
	roundTrip := func() {
		buf = AppendEncode(buf[:0], u)
		if err := DecodeInto(&dec, buf); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the buffers
	if allocs := testing.AllocsPerRun(20, roundTrip); allocs > 0 {
		t.Fatalf("steady-state round trip allocates %v objects, want 0", allocs)
	}
}

func TestGatherIntoReuse(t *testing.T) {
	x := []float32{10, 20, 30, 40, 50}
	var c Chunk
	idx := []int32{1, 3}
	GatherInto(&c, 7, x, idx)
	if c.Layer != 7 || c.Idx[0] != 1 || c.Idx[1] != 3 || c.Val[0] != 20 || c.Val[1] != 40 {
		t.Fatalf("unexpected gather result: %+v", c)
	}
	idx[0] = 0 // caller-owned scratch must have been copied
	if c.Idx[0] != 1 {
		t.Fatal("GatherInto must copy the index slice")
	}
	prevIdx, prevVal := &c.Idx[0], &c.Val[0]
	GatherInto(&c, 2, x, []int32{0, 4})
	if &c.Idx[0] != prevIdx || &c.Val[0] != prevVal {
		t.Fatal("same-size regather must reuse backing storage")
	}
	if c.Val[0] != 10 || c.Val[1] != 50 {
		t.Fatalf("regather values wrong: %+v", c.Val)
	}
}

func TestNextChunkResurrectsStorage(t *testing.T) {
	var u Update
	c := u.NextChunk()
	c.Idx = append(c.Idx, 1, 2, 3)
	c.Val = append(c.Val, 1, 2, 3)
	prev := &c.Idx[0]
	u.Chunks = u.Chunks[:0]
	c2 := u.NextChunk()
	if len(c2.Idx) != 3 {
		// NextChunk re-extends to the slot's previous length; callers
		// overwrite via GatherInto/append. What matters is the storage.
		c2.Idx = c2.Idx[:cap(c2.Idx)]
	}
	if &c2.Idx[0] != prev {
		t.Fatal("NextChunk must resurrect the previous backing array")
	}
}

func TestCutRankMatchesSort(t *testing.T) {
	rng := tensor.NewRNG(34)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		if trial%5 == 0 {
			n += 2 * ExactCap // histogram path
		}
		x := make([]float32, n)
		rng.FillNormal(x, 0, 1)
		k := 1 + rng.Intn(n)
		abs := make([]float64, n)
		for i, v := range x {
			abs[i] = math.Abs(float64(v))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(abs)))
		want := float32(abs[k-1])
		var sel Selector
		if got := sel.Cut(x, k).Rank(); got != want {
			t.Fatalf("n=%d k=%d: threshold %v, want %v", n, k, got, want)
		}
	}
}

func TestSelectorSteadyStateAllocs(t *testing.T) {
	x := make([]float32, 1<<16)
	tensor.NewRNG(35).FillNormal(x, 0, 1)
	var sel Selector
	k := len(x) / 100
	sel.TopK(x, k) // warm the scratch
	allocs := testing.AllocsPerRun(10, func() {
		sel.TopK(x, k)
	})
	if allocs > 0 {
		t.Fatalf("steady-state selection allocates %v objects, want 0", allocs)
	}
}

func BenchmarkCodecRoundTripReuse(b *testing.B) {
	u := randUpdate(tensor.NewRNG(36), []int{864, 9216, 18432, 65536, 1280}, 0.01)
	var buf []byte
	var dec Update
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], u)
		if err := DecodeInto(&dec, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKSelector(b *testing.B) {
	x := make([]float32, 1<<20)
	tensor.NewRNG(37).FillNormal(x, 0, 1)
	k := len(x) / 100
	var sel Selector
	sel.TopK(x, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.TopK(x, k)
	}
}
