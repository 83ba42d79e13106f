package tensor

// This file freezes the pre-optimisation GEMM loops exactly as they were
// before the blocked engine landed. They serve two purposes:
//
//   - dispatch target for tiny problems (below smallGemmVolume), where
//     packing overhead would dominate;
//   - equivalence reference: the table-driven kernel tests assert the
//     blocked engine matches these loops within float tolerance
//     (BaselineGemm, the row fan-out around baselineGemmRows, lives in
//     gemm_baseline_test.go since only the tests call it), and
//     BenchmarkGemmCutoff times them against the blocked engine to place
//     smallGemmVolume.

// baselineGemmRows computes rows [lo,hi) of C using an ikj loop order that
// streams through B row-wise (cache friendly for row-major data).
func baselineGemmRows(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : i*n+n]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
		ai := a[i*k : i*k+k]
		for p := 0; p < k; p++ {
			av := alpha * ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*n : p*n+n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// BaselineGemmTA is the pre-optimisation GemmTA: a serial saxpy loop over
// the k dimension.
func BaselineGemmTA(alpha float32, a []float32, k, m int, b []float32, n int, beta float32, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmTA buffer too small for stated dimensions")
	}
	if beta == 0 {
		for i := range c[:m*n] {
			c[i] = 0
		}
	} else if beta != 1 {
		for i := range c[:m*n] {
			c[i] *= beta
		}
	}
	for p := 0; p < k; p++ {
		ap := a[p*m : p*m+m]
		bp := b[p*n : p*n+n]
		for i, av := range ap {
			s := alpha * av
			if s == 0 {
				continue
			}
			ci := c[i*n : i*n+n]
			for j, bv := range bp {
				ci[j] += s * bv
			}
		}
	}
}

// BaselineGemmTB is the pre-optimisation GemmTB: a serial per-element
// float64 dot product.
func BaselineGemmTB(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTB buffer too small for stated dimensions")
	}
	for i := 0; i < m; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*n : i*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*k : j*k+k]
			var s float64
			for p := 0; p < k; p++ {
				s += float64(ai[p]) * float64(bj[p])
			}
			if beta == 0 {
				ci[j] = alpha * float32(s)
			} else {
				ci[j] = alpha*float32(s) + beta*ci[j]
			}
		}
	}
}
