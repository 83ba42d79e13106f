//go:build !amd64

package tensor

// useSIMDKernel is false off amd64: the portable Go micro-kernel runs.
const useSIMDKernel = false

// microKernel4x16AVX is never called when useSIMDKernel is false; this stub
// keeps the dispatch site compiling on other architectures.
func microKernel4x16AVX(kb int, ap, bp, c *float32, ldc int) {
	panic("tensor: SIMD micro-kernel unavailable on this architecture")
}
