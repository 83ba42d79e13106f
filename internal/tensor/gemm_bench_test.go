package tensor

import (
	"fmt"
	"testing"
)

// modelGemmShapes are the products one training step of the end-to-end
// benchmark's models performs: the MLP (64,512,512,64) at batch 64 and
// ResNetS at batch 8 with batch-wide im2col (N = batch·oh·ow columns).
// op is the entry point: "nn" Gemm (dX), "ta" GemmTA (dW of Linear, dcols
// of Conv2D), "tb" GemmTB (Linear forward, dW of Conv2D).
var modelGemmShapes = []struct {
	op      string
	m, k, n int
}{
	{"tb", 64, 64, 512}, {"tb", 64, 512, 512}, {"tb", 64, 512, 64}, // Linear forward
	{"ta", 512, 64, 512}, {"ta", 512, 64, 64}, // Linear dW
	{"nn", 64, 512, 512}, {"nn", 64, 64, 512}, // Linear dX
	{"nn", 8, 27, 2048}, {"nn", 8, 72, 2048}, {"nn", 16, 144, 512}, {"nn", 32, 288, 128}, // Conv2D forward
	{"tb", 8, 2048, 72}, {"tb", 16, 512, 144}, {"tb", 32, 128, 288}, // Conv2D dW
	{"ta", 72, 8, 2048}, {"ta", 144, 16, 512}, {"ta", 288, 32, 128}, // Conv2D dcols
}

// BenchmarkGemmModelShapes times each of those products alone.
func BenchmarkGemmModelShapes(b *testing.B) {
	rng := NewRNG(27)
	for _, s := range modelGemmShapes {
		b.Run(fmt.Sprintf("%s_%dx%dx%d", s.op, s.m, s.k, s.n), func(b *testing.B) {
			a := randomMat(rng, s.m*s.k)
			bb := randomMat(rng, s.k*s.n)
			c := make([]float32, s.m*s.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch s.op {
				case "nn":
					Gemm(1, a, s.m, s.k, bb, s.n, 0, c)
				case "ta":
					GemmTA(1, a, s.k, s.m, bb, s.n, 0, c)
				case "tb":
					GemmTB(1, a, s.m, s.k, bb, s.n, 0, c)
				}
			}
		})
	}
}

// BenchmarkGemmCutoff times the blocked driver against the unpacked baseline
// loops on small products, to place smallGemmVolume where the two cross.
func BenchmarkGemmCutoff(b *testing.B) {
	rng := NewRNG(28)
	for _, s := range [][3]int{
		{8, 32, 10}, {10, 8, 32}, {8, 10, 32}, // ResNetS head at batch 8: forward, dW, dX
		{8, 8, 8}, {12, 12, 12}, {16, 16, 16}, {20, 20, 20}, {24, 24, 24}, {32, 32, 32},
		{4, 64, 16}, {16, 8, 64}, {64, 16, 4},
		{1, 1, 1}, {2, 4, 3}, {4, 4, 4}, {1, 300, 257}, {300, 257, 1}, {1, 64, 10}, {2, 2, 64},
	} {
		m, k, n := s[0], s[1], s[2]
		a, bb, c := randomMat(rng, m*k), randomMat(rng, k*n), make([]float32, m*n)
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		b.Run("nn_blocked_"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmBlocked(1, a, k, false, bb, n, false, m, n, k, 0, c)
			}
		})
		b.Run("nn_baseline_"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baselineGemmRows(1, a, m, k, bb, n, 0, c, 0, m)
			}
		})
		b.Run("ta_blocked_"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmBlocked(1, a, m, true, bb, n, false, m, n, k, 0, c)
			}
		})
		b.Run("ta_baseline_"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BaselineGemmTA(1, a, k, m, bb, n, 0, c)
			}
		})
		b.Run("tb_blocked_"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmBlocked(1, a, k, false, bb, k, true, m, n, k, 0, c)
			}
		})
		b.Run("tb_baseline_"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BaselineGemmTB(1, a, m, k, bb, n, 0, c)
			}
		})
	}
}
