package tensor

// useAVX gates every AVX kernel of the repository. It is read in four
// places, and by KernelTier, which only names it: tapPanel, the
// table-driven dispatcher behind the matmuls and both convolution
// products; matMulRows, which sends a lone row to mmRow1AVX;
// col2imAddInto's rectangle-add branch; and HasAVX, through which the
// neuron-step kernel of internal/snn sits behind the same gate. AVX
// (256-bit VMULPD/VADDPD, no FMA — fusing would change rounding and
// break bit-identity with the scalar kernels) is available on every
// x86-64 server/desktop CPU since 2011; when absent every kernel falls
// back to its Go body.
//
// useAVX512 gates the zmm tier of the tap-table panels, the quads' group
// pairs, and is read only by tapPanel (and KernelTier). A zmm lane rounds exactly like a ymm
// lane, so the tiers are bit-identical and the wider one halves the
// instructions. There is no option to pick a tier: CPUID picks it once
// per process. Both gates are variables so that tests can switch them
// off and run the narrower tiers on a wider host (eachKernelPath).
var (
	useAVX    = hasAVXAsm()
	useAVX512 = useAVX && hasAVX512Asm()
)

// hasAVXAsm reports whether the CPU supports AVX and the OS preserves
// ymm state across context switches (CPUID.1:ECX {OSXSAVE, AVX} plus
// XGETBV XCR0 {XMM, YMM}).
func hasAVXAsm() bool

// hasAVX512Asm reports whether the CPU supports AVX-512F and the OS
// preserves the opmask and zmm state (CPUID.(7,0):EBX bit 16 plus XGETBV
// XCR0 {XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM}, mask 0xE6). It assumes
// hasAVXAsm has passed: XGETBV needs OSXSAVE.
func hasAVX512Asm() bool

// mmRow1AVX stores one row of a strided product:
//
//	dst[g*8+c] = Σ_{p<k} a[p·aStepP/8] · b[p·bStepP/8 + g*8 + c]
//
// for g in [0,groups), c in [0,8), strides in bytes. Each output is one
// ymm lane, zeroed in the register, added to in ascending p and stored
// once, so the result is bit-identical to the scalar kernels (packed
// IEEE multiply and add round lanewise exactly like MULSD/ADDSD). It
// carries the matmul's lone rows (see matMulRows). The caller guarantees
// k ≥ 1.
//
//go:noescape
func mmRow1AVX(dst *float64, a *float64, aStepP int64, b *float64, bStepP int64, k, groups int64)

// tapPanel4AVX stores a 4-row panel of tap-table products:
//
//	dst[r·dstRowStride/8 + gd[g] + c] = Σ_{p<k} ar[aoff[p]] · b[gb[g] + boff[p] + c]
//
// for r in [0,4), g in [0,groups), c in [0,8), where ar is the r-th of
// the four a-rows a0..a3, the offsets in aoff, boff, gd and gb are in
// floats and dstRowStride is in bytes. Each output is one ymm lane,
// zeroed in the register, added to in ascending p and stored once (see
// tapPanel). The caller guarantees k ≥ 1 and that every offset is in
// bounds.
//
//go:noescape
func tapPanel4AVX(dst *float64, dstRowStride int64, a0, a1, a2, a3 *float64, aoff *uint64, b *float64, boff *uint64, k int64, gd, gb *uint64, groups int64)

// tapPanel2AVX is the two-row variant of tapPanel4AVX.
//
//go:noescape
func tapPanel2AVX(dst *float64, dstRowStride int64, a0, a1 *float64, aoff *uint64, b *float64, boff *uint64, k int64, gd, gb *uint64, groups int64)

// tapPanel4x2AVX512 is tapPanel4AVX on zmm registers, two groups a pass
// (eight accumulators): the same sums, with the a-rows given as a +
// rows[r] for r in [0,4). The caller guarantees groups a positive even
// number.
//
//go:noescape
func tapPanel4x2AVX512(dst *float64, dstRowStride int64, a *float64, rows *uint64, aoff *uint64, b *float64, boff *uint64, k int64, gd, gb *uint64, groups int64)

// addRectAVX adds a rows × cols rectangle of src into dst, row by row:
//
//	dst[r·dstStride/8 + j] += src[r·srcStride/8 + j]
//
// for r in [0,rows), j in [0,cols), strides in bytes. Every element is
// one packed (or, for the cols mod 4 tail, scalar) IEEE add with dst as
// the first operand — the float the Go loop's `dst[j] += src[j]` stores.
// rows or cols of 0 is a no-op.
//
//go:noescape
func addRectAVX(dst *float64, dstStride int64, src *float64, srcStride int64, rows, cols int64)
