//go:build !amd64

package tensor

// Non-amd64 targets run the scalar 2×4 register tile everywhere.
const useAVX = false

// mmPanel4AVX is never called when useAVX is false.
func mmPanel4AVX(dst *float64, dstRowStride int64, a0, a1, a2, a3 *float64, aStepP int64, b *float64, bStepP int64, k, groups int64) {
	panic("tensor: AVX micro-kernel called on a non-amd64 target")
}

// mmPanel2AVX is never called when useAVX is false.
func mmPanel2AVX(dst *float64, dstRowStride int64, a0, a1 *float64, aStepP int64, b *float64, bStepP int64, k, groups int64) {
	panic("tensor: AVX micro-kernel called on a non-amd64 target")
}
