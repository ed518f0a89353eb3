// AVX body of the LIF threshold step (contract in lif_amd64.go; the Go
// loop in lif.go is the reference). No FMA: every multiply and add rounds
// on its own, lane by lane, exactly like the scalar MULSD/ADDSD the Go
// loop compiles to.

#include "textflag.h"

DATA lifOne<>+0(SB)/8, $1.0
GLOBL lifOne<>(SB), RODATA|NOPTR, $8
DATA lifAbs<>+0(SB)/8, $0x7fffffffffffffff
GLOBL lifAbs<>(SB), RODATA|NOPTR, $8

// func lifWordsAVX(spk, vout, surr, cur, mem *float64, bits *uint64, words int64, alpha, vth, beta float64, gated bool)
//
// Register layout: Y15 α, Y14 Vth, Y13 β, Y12 1.0, Y11 the sign-clearing
// mask; Y0 the pre-reset membrane p, Y1 the compare mask and then the
// spike s, Y2 the surrogate, Y3 the post-reset membrane. DI, SI, DX walk
// spk, vout, surr (DX = 0: no surrogate); R8, R9 walk cur, mem; R10 walks
// bits (0: no packing); CX counts words, R12 the sixteen 4-lane groups of
// a word; R11 collects the word — each group's VMOVMSKPD nibble enters at
// the top and shifts down, so after sixteen groups neuron j is bit j; BX
// is the reset mode.
TEXT ·lifWordsAVX(SB), NOSPLIT, $0-81
	MOVQ         spk+0(FP), DI
	MOVQ         vout+8(FP), SI
	MOVQ         surr+16(FP), DX
	MOVQ         cur+24(FP), R8
	MOVQ         mem+32(FP), R9
	MOVQ         bits+40(FP), R10
	MOVQ         words+48(FP), CX
	VBROADCASTSD alpha+56(FP), Y15
	VBROADCASTSD vth+64(FP), Y14
	VBROADCASTSD beta+72(FP), Y13
	MOVBQZX      gated+80(FP), BX
	VBROADCASTSD lifOne<>(SB), Y12
	VBROADCASTSD lifAbs<>(SB), Y11

wloop:
	TESTQ CX, CX
	JLE   wdone
	XORQ  R11, R11
	MOVQ  $16, R12

gloop:
	// p = α·v + I, then the strict, ordered compare: a NaN never spikes.
	VMULPD    (R9), Y15, Y0
	VADDPD    (R8), Y0, Y0
	VCMPPD    $0x1e, Y14, Y0, Y1
	VMOVMSKPD Y1, AX
	VANDPD    Y12, Y1, Y1
	VMOVUPD   Y1, (DI)
	SHRQ      $4, R11
	SHLQ      $60, AX
	ORQ       AX, R11

	// σ' = 1 / (1 + β·|p − Vth|)², only for a step that records a pullback.
	TESTQ   DX, DX
	JZ      reset
	VSUBPD  Y14, Y0, Y2
	VANDPD  Y11, Y2, Y2
	VMULPD  Y2, Y13, Y2
	VADDPD  Y2, Y12, Y2
	VMULPD  Y2, Y2, Y2
	VDIVPD  Y2, Y12, Y2
	VMOVUPD Y2, (DX)
	ADDQ    $32, DX

reset:
	TESTQ  BX, BX
	JZ     subtract
	VSUBPD Y1, Y12, Y3
	VMULPD Y3, Y0, Y3
	JMP    vstore

subtract:
	VMULPD Y1, Y14, Y3
	VSUBPD Y3, Y0, Y3

vstore:
	VMOVUPD Y3, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    R12
	JNZ     gloop

	TESTQ R10, R10
	JZ    wnext
	MOVQ  R11, (R10)
	ADDQ  $8, R10

wnext:
	DECQ CX
	JMP  wloop

wdone:
	VZEROUPPER
	RET
