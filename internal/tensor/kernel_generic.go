//go:build !amd64

package tensor

// Non-amd64 targets run the Go loops everywhere.
const (
	useAVX    = false
	useAVX512 = false
)

// mmRow1AVX is never called when useAVX is false.
func mmRow1AVX(dst *float64, a *float64, aStepP int64, b *float64, bStepP int64, k, groups int64) {
	panic("tensor: AVX micro-kernel called on a non-amd64 target")
}

// tapPanel4AVX is never called when useAVX is false.
func tapPanel4AVX(dst *float64, dstRowStride int64, a0, a1, a2, a3 *float64, aoff *uint64, b *float64, boff *uint64, k int64, gd, gb *uint64, groups int64) {
	panic("tensor: AVX tap kernel called on a non-amd64 target")
}

// tapPanel2AVX is never called when useAVX is false.
func tapPanel2AVX(dst *float64, dstRowStride int64, a0, a1 *float64, aoff *uint64, b *float64, boff *uint64, k int64, gd, gb *uint64, groups int64) {
	panic("tensor: AVX tap kernel called on a non-amd64 target")
}

// tapPanel4x2AVX512 is never called when useAVX512 is false.
func tapPanel4x2AVX512(dst *float64, dstRowStride int64, a *float64, rows *uint64, aoff *uint64, b *float64, boff *uint64, k int64, gd, gb *uint64, groups int64) {
	panic("tensor: AVX-512 tap kernel called on a non-amd64 target")
}

// addRectAVX is never called when useAVX is false.
func addRectAVX(dst *float64, dstStride int64, src *float64, srcStride int64, rows, cols int64) {
	panic("tensor: AVX rectangle add called on a non-amd64 target")
}
