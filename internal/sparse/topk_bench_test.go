package sparse

import (
	"fmt"
	"testing"

	"dgs/internal/tensor"
)

var topkBenchShapes = []struct {
	n    int
	keep float64
}{
	{1 << 10, 0.01}, {1 << 10, 0.05},
	{1 << 15, 0.01}, {1 << 15, 0.05},
	{1 << 18, 0.01}, {1 << 18, 0.05},
}

// BenchmarkSelectorTopK is dense per-layer selection at the sizes the
// training workloads run: a small conv layer, a mid layer, and the MLP's
// dominant 512×512 weight matrix.
func BenchmarkSelectorTopK(b *testing.B) {
	for _, s := range topkBenchShapes {
		b.Run(fmt.Sprintf("n=%d/keep=%g", s.n, s.keep), func(b *testing.B) {
			x := make([]float32, s.n)
			tensor.NewRNG(51).FillNormal(x, 0, 1)
			k := KForRatio(s.n, s.keep)
			var sel Selector
			sel.TopK(x, k)
			b.ReportAllocs()
			b.SetBytes(int64(4 * s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel.TopK(x, k)
			}
		})
	}
}

// BenchmarkSelectorTopKList is the Eq. 6 secondary gather's shape: the
// candidate list is a tenth of a 2^18 layer, block-ordered with the last
// quarter of the blocks promoted out of order.
func BenchmarkSelectorTopKList(b *testing.B) {
	for _, keep := range []float64{0.01, 0.05} {
		b.Run(fmt.Sprintf("cand=%d/keep=%g", 1<<18/10, keep), func(b *testing.B) {
			n := 1 << 18 / 10
			val := make([]float32, n)
			tensor.NewRNG(52).FillNormal(val, 0, 1)
			gidx := make([]int32, n)
			for i := range gidx {
				gidx[i] = int32(10 * ((i + n/4) % n))
			}
			k := KForRatio(1<<18, keep)
			var sel Selector
			sel.TopKList(val, gidx, k)
			b.ReportAllocs()
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel.TopKList(val, gidx, k)
			}
		})
	}
}
