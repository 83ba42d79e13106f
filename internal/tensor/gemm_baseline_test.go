package tensor

import (
	"runtime"
	"sync"
)

// baselineParallelThreshold is the volume above which BaselineGemm fans
// its rows out, as the pre-optimisation Gemm did.
const baselineParallelThreshold = 64 * 64 * 64

// BaselineGemm is the pre-optimisation Gemm: an ikj loop with row fan-out
// across goroutines for large problems.
func BaselineGemm(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: Gemm buffer too small for stated dimensions")
	}
	if m == 0 || n == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if m*n*k < baselineParallelThreshold || workers == 1 || m == 1 {
		baselineGemmRows(alpha, a, m, k, b, n, beta, c, 0, m)
		return
	}
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			baselineGemmRows(alpha, a, m, k, b, n, beta, c, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
