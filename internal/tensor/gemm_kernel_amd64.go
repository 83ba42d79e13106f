//go:build amd64

package tensor

import "os"

// useSIMDKernel reports whether the AVX2 kernels may be used: the GEMM
// micro-kernel and the streaming kernels of stream.go. It requires CPU
// support for AVX2, FMA and POPCNT plus OS support for saving the YMM
// register state (OSXSAVE + XCR0 bits 1 and 2). Setting DGS_DISABLE_SIMD=1
// forces the portable Go twins, so CI can exercise the generic path on
// AVX2 machines.
var useSIMDKernel = detectSIMD()

func detectSIMD() bool {
	if os.Getenv("DGS_DISABLE_SIMD") != "" {
		return false
	}
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12
		popcntBit  = 1 << 23
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, c1, _ := cpuidex(1, 0)
	if c1&fmaBit == 0 || c1&popcntBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	if xeax, _ := xgetbv(); xeax&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// microKernel4x16AVX computes the full 4×16 tile product of the packed
// panels ap (kb×4, p-major) and bp (kb×16, p-major) and adds row r of it
// into the 16 floats at c[r*ldc]. Implemented in gemm_kernel_amd64.s.
//
//go:noescape
func microKernel4x16AVX(kb int, ap, bp, c *float32, ldc int)

// cpuidex executes CPUID with the given leaf and subleaf.
//
//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, checked before calling).
//
//go:noescape
func xgetbv() (eax, edx uint32)
