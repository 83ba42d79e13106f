#include "textflag.h"

// func microKernel4x16AVX(kb int, ap, bp, c *float32, ldc int)
//
// Computes the 4×16 micro-tile product of the packed panels
//   ap: kb×4 floats, p-major (ap[p*4+r] = A[row r, depth p])
//   bp: kb×16 floats, p-major (bp[p*16+j] = B[depth p, col j])
// in registers and adds row r of the tile into c[r*ldc : r*ldc+16]
// (load, add, store), so full tiles accumulate straight into C.
//
// Register plan: Y0..Y7 hold the 4×16 accumulator (two 8-lane halves per
// row), Y8/Y9 stream the B panel, Y10..Y13 hold broadcast A values. The
// depth loop is unrolled ×2 so each accumulator is written every ~4 cycles,
// covering the FMA latency chain.
TEXT ·microKernel4x16AVX(SB), NOSPLIT, $0-40
	MOVQ kb+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), AX
	SHLQ $2, AX        // AX = row stride of c in bytes

	VZEROALL

	MOVQ CX, BX
	SHRQ $1, CX        // CX = kb/2 unrolled iterations
	JZ   tail

loop2:
	// depth p
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSS (SI), Y10
	VBROADCASTSS 4(SI), Y11
	VBROADCASTSS 8(SI), Y12
	VBROADCASTSS 12(SI), Y13
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7

	// depth p+1
	VMOVUPS      64(DI), Y8
	VMOVUPS      96(DI), Y9
	VBROADCASTSS 16(SI), Y10
	VBROADCASTSS 20(SI), Y11
	VBROADCASTSS 24(SI), Y12
	VBROADCASTSS 28(SI), Y13
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7

	ADDQ $32, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  loop2

tail:
	ANDQ $1, BX
	JZ   store

	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSS (SI), Y10
	VBROADCASTSS 4(SI), Y11
	VBROADCASTSS 8(SI), Y12
	VBROADCASTSS 12(SI), Y13
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7

store:
	VADDPS  (DX), Y0, Y0
	VADDPS  32(DX), Y1, Y1
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    AX, DX
	VADDPS  (DX), Y2, Y2
	VADDPS  32(DX), Y3, Y3
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    AX, DX
	VADDPS  (DX), Y4, Y4
	VADDPS  32(DX), Y5, Y5
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ    AX, DX
	VADDPS  (DX), Y6, Y6
	VADDPS  32(DX), Y7, Y7
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
