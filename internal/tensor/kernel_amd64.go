package tensor

// useAVX gates the AVX micro-kernel in matMulAccum/matMulATBAccum. AVX
// (256-bit VMULPD/VADDPD, no FMA — fusing would change rounding and
// break bit-identity with the scalar kernels) is available on every
// x86-64 server/desktop CPU since 2011; when absent the kernels fall
// back to the scalar 2×4 register tile.
var useAVX = hasAVXAsm()

// hasAVXAsm reports whether the CPU supports AVX and the OS preserves
// ymm state across context switches (CPUID.1:ECX {OSXSAVE, AVX} plus
// XGETBV XCR0 {XMM, YMM}).
func hasAVXAsm() bool

// mmPanel4AVX accumulates a 4-row × (groups·8)-column output panel:
//
//	dst[r][g*8+c] += Σ_p ar[p·aStepP/8] · b[p·bStepP/8 + g*8 + c]
//
// for r in [0,4), g in [0,groups), c in [0,8), where ar is the r-th of
// the four a-row cursors a0..a3 and all strides are in bytes. Each output
// element owns one ymm lane accumulated in ascending-p order, so the
// result is bit-identical to the scalar kernels (packed IEEE multiply
// and add round lanewise exactly like MULSD/ADDSD). The caller
// guarantees k ≥ 1 and full tiles (fringes run in Go).
//
//go:noescape
func mmPanel4AVX(dst *float64, dstRowStride int64, a0, a1, a2, a3 *float64, aStepP int64, b *float64, bStepP int64, k, groups int64)

// mmPanel2AVX is the two-row variant of mmPanel4AVX, used for the row
// fringe when m mod 4 is 2 or 3.
//
//go:noescape
func mmPanel2AVX(dst *float64, dstRowStride int64, a0, a1 *float64, aStepP int64, b *float64, bStepP int64, k, groups int64)
