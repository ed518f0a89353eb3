package snn

// lifWordsAVX is the AVX body of the plain LIF threshold step
// (lif_amd64.s): FastSigmoid surrogate, no adaptive excess, words·64
// neurons starting at each pointer. spk, vout and — unless surr is nil, a
// step that records no pullback — surr are written, cur and mem read, and
// unless bits is nil the packed spike word of each 64 neurons is stored
// at bits[0:words]. gated selects ResetZero, otherwise ResetSubtract. It
// is gated by tensor.HasAVX and pinned bit for bit to the Go loop in
// thresholdStep, which stays the reference and serves everything the
// kernel does not take; DESIGN.md "Streaming kernels" has the operation
// order.
//
//go:noescape
func lifWordsAVX(spk, vout, surr, cur, mem *float64, bits *uint64, words int64, alpha, vth, beta float64, gated bool)
