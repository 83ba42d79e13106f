//go:build amd64

package tensor

import (
	"math"
	"os"
	"os/exec"
	"testing"
)

// TestGenericKernelMatchesBaseline covers the portable Go micro-kernel on
// AVX2 machines (the same path DGS_DISABLE_SIMD selects at startup), so
// gemm_kernel_generic.go stays correct even when every CI runner has AVX2.
//
// The kernel choice is a package global resolved at init, and mutating it
// in-process would race with any parallel test that calls Gemm, so the
// check re-executes this test binary with DGS_DISABLE_SIMD=1 set: the child
// picks the generic kernels at startup and runs the comparisons below, the
// direct-vs-staged tile check and the streaming kernels' loop checks (their
// Go twins), and no in-process state is ever touched. (CI's generic-gemm
// job runs the whole package this way.)
func TestGenericKernelMatchesBaseline(t *testing.T) {
	if os.Getenv("DGS_TEST_GENERIC_CHILD") != "" {
		if useSIMDKernel {
			t.Fatal("SIMD kernel still reported enabled under DGS_DISABLE_SIMD")
		}
		genericKernelChecks(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.v",
		"-test.run=^(TestGenericKernelMatchesBaseline|TestGemmDirectEqualsStagedTile|TestAxpbyCountMatchesLoop|TestSweepMatchesLoop|TestDiffFoldMatchesLoop|TestDiffCountMatchesLoop)$")
	cmd.Env = append(os.Environ(), "DGS_TEST_GENERIC_CHILD=1", "DGS_DISABLE_SIMD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generic-kernel child run failed: %v\n%s", err, out)
	}
}

// genericKernelChecks compares Gemm/GemmTA/GemmTB against the naive
// baselines across shapes that hit the partial-tile edge cases.
func genericKernelChecks(t *testing.T) {
	rng := NewRNG(7)
	for _, dim := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {4, 16, 16}, {33, 47, 129},
	} {
		m, k, n := dim.m, dim.k, dim.n
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		cInit := randSlice(rng, m*n)

		check := func(name string, got, want []float32) {
			t.Helper()
			for i := range want {
				if d := math.Abs(float64(got[i] - want[i])); d > 1e-3 {
					t.Fatalf("%s %dx%dx%d: c[%d] = %v, want %v (Δ=%g)",
						name, m, k, n, i, got[i], want[i], d)
				}
			}
		}

		got, want := append([]float32(nil), cInit...), append([]float32(nil), cInit...)
		Gemm(0.5, a, m, k, b, n, 0.25, got)
		BaselineGemm(0.5, a, m, k, b, n, 0.25, want)
		check("Gemm", got, want)

		at := randSlice(rng, k*m)
		got, want = append([]float32(nil), cInit...), append([]float32(nil), cInit...)
		GemmTA(1, at, k, m, b, n, 0, got)
		BaselineGemmTA(1, at, k, m, b, n, 0, want)
		check("GemmTA", got, want)

		bt := randSlice(rng, n*k)
		got, want = append([]float32(nil), cInit...), append([]float32(nil), cInit...)
		GemmTB(1, a, m, k, bt, n, 1, got)
		BaselineGemmTB(1, a, m, k, bt, n, 1, want)
		check("GemmTB", got, want)
	}
}

func randSlice(rng *RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}
