#include "textflag.h"

// Streaming kernels of the warm-started Top-k (stream.go). Both compare a
// value's magnitude bits (the value ANDed with 0x7fffffff, read as a signed
// dword) against floor−1 with VPCMPGTD: "magnitude > floor−1" is
// "magnitude ≥ floor", and a floor of 0 becomes −1, which every magnitude
// exceeds.

// func axpbyCountAVX2(x, y *float32, n int, a, b float32, floor uint32, lanes *[8]float64) (count int)
//
// Per block of 8: x = a·x + b·y with two VMULPS and one VADDPS (no FMA, so
// each product is rounded as the Go twin rounds it), stored back; the lanes
// whose new magnitude is ≥ floor are counted in Y12 (a true compare is −1,
// subtracted); |x| is widened to float64 four lanes at a time and added into
// Y13 (lanes 0–3) and Y14 (lanes 4–7), which start from and end in lanes.
TEXT ·axpbyCountAVX2(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), DI
	MOVQ         y+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         lanes+40(FP), DX
	VBROADCASTSS a+24(FP), Y8
	VBROADCASTSS b+28(FP), Y9
	MOVL         floor+32(FP), AX
	DECL         AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11
	VPXOR        Y12, Y12, Y12
	VMOVUPD      (DX), Y13
	VMOVUPD      32(DX), Y14

axpby:
	VMULPS       (DI), Y8, Y0
	VMULPS       (SI), Y9, Y1
	VADDPS       Y1, Y0, Y0
	VMOVUPS      Y0, (DI)
	VPAND        Y11, Y0, Y2
	VPCMPGTD     Y10, Y2, Y3
	VPSUBD       Y3, Y12, Y12
	VCVTPS2PD    X2, Y4
	VEXTRACTF128 $1, Y2, X5
	VCVTPS2PD    X5, Y5
	VADDPD       Y4, Y13, Y13
	VADDPD       Y5, Y14, Y14
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $8, CX
	JNZ          axpby

	VMOVUPD      Y13, (DX)
	VMOVUPD      Y14, 32(DX)
	VEXTRACTI128 $1, Y12, X0
	VPADDD       X0, X12, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVQ         AX, count+48(FP)
	VZEROUPPER
	RET

// func sweepAVX2(x *float32, n int, s float32, scale bool, floor uint32, lut *[256]uint64, idx *int32, val *float32, base int32, room int) (done, w int)
//
// Per block of 8: the lanes whose magnitude is ≥ floor form an 8-bit mask
// (VMOVMSKPS); when scale is set the other lanes are multiplied by s and
// the block is stored back (VBLENDVPS keeps the selected lanes). lut[mask]
// holds the selected lanes' numbers, ascending, one byte each; widened to
// dwords they permute the block's values (VPERMPS) and, added to the
// block's first position (Y12), become its positions. Both full registers
// are stored at w, and w advances by the popcount of the mask, so the
// entries past it are overwritten by the next block. The loop stops when
// fewer than 8 slots of room would be left for that store.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-88
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS s+16(FP), Y9
	MOVBLZX      scale+20(FP), R11
	MOVL         floor+24(FP), AX
	DECL         AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11
	MOVQ         lut+32(FP), R8
	MOVQ         idx+40(FP), R9
	MOVQ         val+48(FP), R10
	MOVL         base+56(FP), AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	MOVL         $8, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVQ         room+64(FP), R12
	SUBQ         $8, R12
	XORQ         BX, BX
	XORQ         DX, DX

sweep:
	CMPQ      BX, CX
	JGE       sweepdone
	CMPQ      DX, R12
	JGT       sweepdone
	VMOVUPS   (DI)(BX*4), Y0
	VPAND     Y11, Y0, Y2
	VPCMPGTD  Y10, Y2, Y3
	TESTQ     R11, R11
	JZ        compress
	VMULPS    Y9, Y0, Y4
	VBLENDVPS Y3, Y0, Y4, Y4
	VMOVUPS   Y4, (DI)(BX*4)

compress:
	VMOVMSKPS Y3, AX
	MOVQ      (R8)(AX*8), R13
	VMOVQ     R13, X6
	VPMOVZXBD X6, Y6
	VPERMPS   Y0, Y6, Y7
	VMOVUPS   Y7, (R10)(DX*4)
	VPADDD    Y12, Y6, Y6
	VMOVDQU   Y6, (R9)(DX*4)
	POPCNTL   AX, AX
	ADDQ      AX, DX
	VPADDD    Y13, Y12, Y12
	ADDQ      $8, BX
	JMP       sweep

sweepdone:
	MOVQ BX, done+72(FP)
	MOVQ DX, w+80(FP)
	VZEROUPPER
	RET

// func diffFoldAVX2(m, v *float32, n int, base int32, lut *[256]uint64, idx *int32, val *float32) (w int, left bool)
//
// Per group of 8: d = m − v (VSUBPS, m the first operand as in the Go twin's
// m[j] − v[j]), and the lanes where d is not ±0 — NaN included, VCMPPS
// predicate 4, NEQ_UQ — form the mask. v + d is blended into v under the
// mask and stored back, so a lane whose d is ±0 is rewritten with its own
// bits (v += d would turn a −0 into +0); the lanes that now differ from m
// (NEQ_UQ again, so a NaN stays set; an unfolded lane equals m) are ORed
// into Y14; and d and the lanes' positions (Y12 holds the group's first)
// are packed through lut[mask] and stored as in sweepAVX2, w advancing by
// the popcount. No branch skips a group without a set lane: at a tenth of
// the lanes set, four groups in ten are empty, and the mispredicted skip
// cost more than the stores it saved.
TEXT ·diffFoldAVX2(SB), NOSPLIT, $0-65
	MOVQ         m+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVL         base+24(FP), AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	MOVL         $8, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVQ         lut+32(FP), R8
	MOVQ         idx+40(FP), R9
	MOVQ         val+48(FP), R10
	VXORPS       Y15, Y15, Y15
	VXORPS       Y14, Y14, Y14
	XORQ         BX, BX
	XORQ         DX, DX

diff:
	VMOVUPS   (DI)(BX*4), Y0
	VMOVUPS   (SI)(BX*4), Y1
	VSUBPS    Y1, Y0, Y2
	VCMPPS    $4, Y15, Y2, Y3
	VMOVMSKPS Y3, AX
	VADDPS    Y2, Y1, Y4
	VBLENDVPS Y3, Y4, Y1, Y4
	VMOVUPS   Y4, (SI)(BX*4)
	VCMPPS    $4, Y0, Y4, Y5
	VORPS     Y5, Y14, Y14
	MOVQ      (R8)(AX*8), R11
	VMOVQ     R11, X6
	VPMOVZXBD X6, Y6
	VPERMPS   Y2, Y6, Y7
	VMOVUPS   Y7, (R10)(DX*4)
	VPADDD    Y12, Y6, Y6
	VMOVDQU   Y6, (R9)(DX*4)
	POPCNTL   AX, AX
	ADDQ      AX, DX
	VPADDD    Y13, Y12, Y12
	ADDQ      $8, BX
	CMPQ      BX, CX
	JLT       diff

	MOVQ      DX, w+56(FP)
	VMOVMSKPS Y14, AX
	TESTL     AX, AX
	SETNE     left+64(FP)
	VZEROUPPER
	RET

// func diffCountAVX2(d, m, v *float32, n int, floor uint32) (atFloor, nonzero int)
//
// Per group of 8: d = m − v (VSUBPS, m the first operand as in the Go
// twin's m[j] − v[j]), stored; its magnitude bits are compared against
// floor−1 (Y10) and against 0 (Y15), and each true lane (−1) is subtracted
// into the at-floor counts (Y12) and the nonzero counts (Y13). The caller
// clamps floor to at least 1, so ±0 counts in neither.
TEXT ·diffCountAVX2(SB), NOSPLIT, $0-56
	MOVQ         d+0(FP), DI
	MOVQ         m+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         n+24(FP), CX
	MOVL         floor+32(FP), AX
	DECL         AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11
	VPXOR        Y12, Y12, Y12
	VPXOR        Y13, Y13, Y13
	VPXOR        Y15, Y15, Y15
	XORQ         BX, BX

diffcount:
	VMOVUPS  (SI)(BX*4), Y0
	VSUBPS   (DX)(BX*4), Y0, Y0
	VMOVUPS  Y0, (DI)(BX*4)
	VPAND    Y11, Y0, Y2
	VPCMPGTD Y10, Y2, Y3
	VPSUBD   Y3, Y12, Y12
	VPCMPGTD Y15, Y2, Y4
	VPSUBD   Y4, Y13, Y13
	ADDQ     $8, BX
	CMPQ     BX, CX
	JLT      diffcount

	VEXTRACTI128 $1, Y12, X0
	VPADDD       X0, X12, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVQ         AX, atFloor+40(FP)
	VEXTRACTI128 $1, Y13, X0
	VPADDD       X0, X13, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVQ         AX, nonzero+48(FP)
	VZEROUPPER
	RET
