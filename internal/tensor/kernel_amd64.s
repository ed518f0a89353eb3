// AVX micro-kernels: the tap-table panel pair behind the matmuls and
// both convolution products with its zmm (AVX-512F) quad, the one-row
// matmul kernel and the rectangle add of the col2im scatter (see
// kernel_amd64.go for the contracts, matmul.go and conv.go for the
// tables and the blocking). No FMA: fused multiply-add rounds once
// where the scalar kernels round twice, and the kernels promise
// bit-identical results.

#include "textflag.h"

// func hasAVXAsm() bool
TEXT ·hasAVXAsm(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// Require CPUID.1:ECX.OSXSAVE[27] and .AVX[28].
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  novx
	// Require the OS to save XMM (XCR0 bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  novx
	MOVB $1, ret+0(FP)
	RET

novx:
	MOVB $0, ret+0(FP)
	RET

// func mmRow1AVX(dst *float64, a *float64, aStepP int64, b *float64, bStepP int64, k, groups int64)
//
// The matmul's lone rows: one-row blocks and the last row when m mod 4
// is 1 or 3. A single row has no second row to hide the add latency
// behind, so while four column groups remain a pass runs 32 columns on
// eight ymm accumulators Y0..Y7 (eight independent add chains per
// broadcast coefficient), then one group (Y0, Y1) at a time. The
// accumulators start at +0 in registers; dst is only written. Y8 is the
// broadcast a coefficient, Y9..Y15 the products; SI/DX walk a and b down
// k, DI/BX walk dst/b across columns, AX counts k down and CX the groups
// left.
TEXT ·mmRow1AVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ aStepP+16(FP), R12
	MOVQ b+24(FP), BX
	MOVQ bStepP+32(FP), R13
	MOVQ k+40(FP), R9
	MOVQ groups+48(FP), CX

g4row:
	CMPQ CX, $4
	JLT  g1row

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R8, SI
	MOVQ   BX, DX
	MOVQ   R9, AX

p4row:
	VBROADCASTSD (SI), Y8
	VMULPD       (DX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(DX), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(DX), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(DX), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(DX), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(DX), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(DX), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(DX), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         R12, SI
	ADDQ         R13, DX
	DECQ         AX
	JNZ          p4row

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	SUBQ    $4, CX
	JMP     g4row

g1row:
	TESTQ CX, CX
	JZ    donerow

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   R8, SI
	MOVQ   BX, DX
	MOVQ   R9, AX

p1row:
	VBROADCASTSD (SI), Y8
	VMULPD       (DX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(DX), Y8, Y10
	VADDPD       Y10, Y1, Y1
	ADDQ         R12, SI
	ADDQ         R13, DX
	DECQ         AX
	JNZ          p1row

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	DECQ    CX
	JMP     g1row

donerow:
	VZEROUPPER
	RET

// func tapPanel4AVX(dst *float64, dstRowStride int64, a0, a1, a2, a3 *float64, aoff *uint64, b *float64, boff *uint64, k int64, gd, gb *uint64, groups int64)
//
// Register layout: Y0..Y7 hold the 4×8 accumulator tile (two ymm per
// row), Y8/Y9 the group's 8 lanes of b at tap p, Y10 the broadcast a
// coefficient, Y11 the product. SI, R9, R10, R11 are the four a-rows,
// R12/R13 point one past the end of aoff/boff and CX counts p up from
// −k to 0, so that (R12)(CX*8) is aoff[p]; AX and DX hold aoff[p] and
// boff[p]. BX is the group's b (b + gb[g]), DI the dst base, R8 the dst
// row stride and R14 the group index g.
TEXT ·tapPanel4AVX(SB), NOSPLIT, $0-104
	MOVQ dst+0(FP), DI
	MOVQ dstRowStride+8(FP), R8
	MOVQ a0+16(FP), SI
	MOVQ a1+24(FP), R9
	MOVQ a2+32(FP), R10
	MOVQ a3+40(FP), R11
	MOVQ k+72(FP), AX
	SHLQ $3, AX
	MOVQ aoff+48(FP), R12
	ADDQ AX, R12
	MOVQ boff+64(FP), R13
	ADDQ AX, R13
	XORQ R14, R14

tgloop4:
	CMPQ R14, groups+96(FP)
	JGE  tdone4

	// The accumulators start at +0 in registers; dst is only written.
	MOVQ   gb+88(FP), BX
	MOVQ   (BX)(R14*8), BX
	SHLQ   $3, BX
	ADDQ   b+56(FP), BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   k+72(FP), CX
	NEGQ   CX

tploop4:
	MOVQ         (R12)(CX*8), AX
	MOVQ         (R13)(CX*8), DX
	VMOVUPD      (BX)(DX*8), Y8
	VMOVUPD      32(BX)(DX*8), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y3, Y3
	VBROADCASTSD (R10)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y5, Y5
	VBROADCASTSD (R11)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y7, Y7
	INCQ         CX
	JNZ          tploop4

	// Store the tile once, at dst + gd[g].
	MOVQ    gd+80(FP), DX
	MOVQ    (DX)(R14*8), DX
	LEAQ    (DI)(DX*8), DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R8, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    R8, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    R8, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)

	INCQ R14
	JMP  tgloop4

tdone4:
	VZEROUPPER
	RET

// func tapPanel2AVX(dst *float64, dstRowStride int64, a0, a1 *float64, aoff *uint64, b *float64, boff *uint64, k int64, gd, gb *uint64, groups int64)
//
// Two-row variant of tapPanel4AVX; same contract and registers, Y0..Y3
// accumulators.
TEXT ·tapPanel2AVX(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ dstRowStride+8(FP), R8
	MOVQ a0+16(FP), SI
	MOVQ a1+24(FP), R9
	MOVQ k+56(FP), AX
	SHLQ $3, AX
	MOVQ aoff+32(FP), R12
	ADDQ AX, R12
	MOVQ boff+48(FP), R13
	ADDQ AX, R13
	XORQ R14, R14

tgloop2:
	CMPQ R14, groups+80(FP)
	JGE  tdone2

	MOVQ   gb+72(FP), BX
	MOVQ   (BX)(R14*8), BX
	SHLQ   $3, BX
	ADDQ   b+40(FP), BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   k+56(FP), CX
	NEGQ   CX

tploop2:
	MOVQ         (R12)(CX*8), AX
	MOVQ         (R13)(CX*8), DX
	VMOVUPD      (BX)(DX*8), Y8
	VMOVUPD      32(BX)(DX*8), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y3, Y3
	INCQ         CX
	JNZ          tploop2

	MOVQ    gd+64(FP), DX
	MOVQ    (DX)(R14*8), DX
	LEAQ    (DI)(DX*8), DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R8, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)

	INCQ R14
	JMP  tgloop2

tdone2:
	VZEROUPPER
	RET

// func hasAVX512Asm() bool
//
// Called only once hasAVXAsm has passed (CPUID.1:ECX OSXSAVE and AVX).
TEXT ·hasAVX512Asm(SB), NOSPLIT, $0-1
	// Leaf 7 exists (CPUID.0:EAX ≥ 7) and CPUID.(7,0):EBX.AVX512F[16].
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  noz
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  noz
	// The OS saves XMM, YMM, the opmask registers and both halves of
	// the zmm state (XCR0 bits 1, 2, 5, 6, 7).
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  noz
	MOVB $1, ret+0(FP)
	RET

noz:
	MOVB $0, ret+0(FP)
	RET

// The zmm tier, one kernel. It keeps tapPanel4AVX's contract — every
// output one lane, started at +0 by VPXORQ (VXORPD on zmm needs
// AVX512DQ), added to in ascending p by separate VMULPD/VADDPD with the
// operands in tapPanel4AVX's order, stored once — and holds eight zmm
// accumulators, so that eight independent add chains cover the add
// latency on both FP ports. A zmm register is a whole 8-lane group, so
// the tile is 4 rows × 2 groups. It uses Z0..Z15 only: VZEROUPPER does
// not clear Z16..Z31, whose dirty upper halves would outlive the call.
// The row pointers are a + rows[r]; R12 and R13 point one past the end
// of aoff and boff and CX counts p up from −k to 0, as in tapPanel4AVX.

// func tapPanel4x2AVX512(dst *float64, dstRowStride int64, a *float64, rows *uint64, aoff *uint64, b *float64, boff *uint64, k int64, gd, gb *uint64, groups int64)
//
// Groups g and g+1 a pass: row r's two accumulators are Z(2r) and
// Z(2r+1), Z8/Z9 the two groups' lanes of b at tap p, Z10 the broadcast
// a coefficient, Z11 the product. SI, R9, R10, R11 are the four a-rows,
// BX and R15 the two groups' b (b + gb[g], b + gb[g+1]), DI the dst
// base, R8 the dst row stride and R14 the group index g.
TEXT ·tapPanel4x2AVX512(SB), NOSPLIT, $0-88
	MOVQ a+16(FP), AX
	MOVQ rows+24(FP), DX
	MOVQ (DX), SI
	LEAQ (AX)(SI*8), SI
	MOVQ 8(DX), R9
	LEAQ (AX)(R9*8), R9
	MOVQ 16(DX), R10
	LEAQ (AX)(R10*8), R10
	MOVQ 24(DX), R11
	LEAQ (AX)(R11*8), R11
	MOVQ dst+0(FP), DI
	MOVQ dstRowStride+8(FP), R8
	MOVQ k+56(FP), AX
	SHLQ $3, AX
	MOVQ aoff+32(FP), R12
	ADDQ AX, R12
	MOVQ boff+48(FP), R13
	ADDQ AX, R13
	XORQ R14, R14

zg42:
	CMPQ   R14, groups+80(FP)
	JGE    zdone42
	MOVQ   gb+72(FP), DX
	MOVQ   b+40(FP), AX
	MOVQ   (DX)(R14*8), BX
	LEAQ   (AX)(BX*8), BX
	MOVQ   8(DX)(R14*8), R15
	LEAQ   (AX)(R15*8), R15
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   k+56(FP), CX
	NEGQ   CX

zp42:
	MOVQ         (R12)(CX*8), AX
	MOVQ         (R13)(CX*8), DX
	VMOVUPD      (BX)(DX*8), Z8
	VMOVUPD      (R15)(DX*8), Z9
	VBROADCASTSD (SI)(AX*8), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z0, Z0
	VMULPD       Z9, Z10, Z11
	VADDPD       Z11, Z1, Z1
	VBROADCASTSD (R9)(AX*8), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z2, Z2
	VMULPD       Z9, Z10, Z11
	VADDPD       Z11, Z3, Z3
	VBROADCASTSD (R10)(AX*8), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z4, Z4
	VMULPD       Z9, Z10, Z11
	VADDPD       Z11, Z5, Z5
	VBROADCASTSD (R11)(AX*8), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z6, Z6
	VMULPD       Z9, Z10, Z11
	VADDPD       Z11, Z7, Z7
	INCQ         CX
	JNZ          zp42

	// Group g's column of the tile at dst + gd[g], g+1's at dst + gd[g+1].
	MOVQ    gd+64(FP), DX
	MOVQ    (DX)(R14*8), AX
	LEAQ    (DI)(AX*8), AX
	MOVQ    8(DX)(R14*8), DX
	LEAQ    (DI)(DX*8), DX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, (DX)
	ADDQ    R8, AX
	ADDQ    R8, DX
	VMOVUPD Z2, (AX)
	VMOVUPD Z3, (DX)
	ADDQ    R8, AX
	ADDQ    R8, DX
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, (DX)
	ADDQ    R8, AX
	ADDQ    R8, DX
	VMOVUPD Z6, (AX)
	VMOVUPD Z7, (DX)

	ADDQ $2, R14
	JMP  zg42

zdone42:
	VZEROUPPER
	RET

// func addRectAVX(dst *float64, dstStride int64, src *float64, srcStride int64, rows, cols int64)
//
// DI/SI are the row starts of dst/src, DX/BX the cursors within a row,
// CX the row countdown, AX the columns left in the row. A row runs eight
// columns at a time, then four, then one.
TEXT ·addRectAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R9
	MOVQ rows+32(FP), CX
	MOVQ cols+40(FP), R10

rrow:
	TESTQ CX, CX
	JLE   rdone
	MOVQ  DI, DX
	MOVQ  SI, BX
	MOVQ  R10, AX

r8:
	CMPQ    AX, $8
	JLT     r4
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VADDPD  (BX), Y0, Y0
	VADDPD  32(BX), Y1, Y1
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    $64, DX
	ADDQ    $64, BX
	SUBQ    $8, AX
	JMP     r8

r4:
	CMPQ    AX, $4
	JLT     r1
	VMOVUPD (DX), Y0
	VADDPD  (BX), Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ    $32, DX
	ADDQ    $32, BX
	SUBQ    $4, AX

r1:
	TESTQ  AX, AX
	JLE    rnext
	VMOVSD (DX), X0
	VADDSD (BX), X0, X0
	VMOVSD X0, (DX)
	ADDQ   $8, DX
	ADDQ   $8, BX
	DECQ   AX
	JMP    r1

rnext:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ CX
	JMP  rrow

rdone:
	VZEROUPPER
	RET
