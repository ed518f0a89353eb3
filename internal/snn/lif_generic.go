//go:build !amd64

package snn

// lifWordsAVX is never called off amd64: tensor.HasAVX is constant false
// there and the Go loop of LIFStep runs every neuron.
func lifWordsAVX(spk, vout, surr, cur, mem *float64, bits *uint64, words int64, alpha, vth, beta float64) {
	panic("snn: AVX neuron step called on a non-amd64 target")
}
