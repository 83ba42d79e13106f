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
