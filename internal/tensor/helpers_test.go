package tensor

import "snnsec/internal/compute"

// Fresh-result forms of the ...Into kernels, for tests that compare
// whole outputs.

// transpose2D returns aᵀ for a 2-D a.
func transpose2D(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

func matMulATB(be compute.Backend, a, b *Tensor) *Tensor {
	return MatMulATBInto(be, New(a.Dim(1), b.Dim(1)), a, b)
}

func matMulABT(be compute.Backend, a, b *Tensor) *Tensor {
	return MatMulABTInto(be, New(a.Dim(0), b.Dim(0)), a, b)
}

func avgPool2D(be compute.Backend, x *Tensor, k int) *Tensor {
	return AvgPool2DInto(be, New(x.Dim(0), x.Dim(1), x.Dim(2)/k, x.Dim(3)/k), x, k)
}

func avgPool2DBackward(be compute.Backend, gout *Tensor, k int) *Tensor {
	return AvgPool2DBackwardInto(be, New(gout.Dim(0), gout.Dim(1), gout.Dim(2)*k, gout.Dim(3)*k), gout, k)
}

func spikeAvgPool2D(be compute.Backend, s *SpikeTensor, k int) *Tensor {
	return SpikeAvgPool2DInto(be, New(s.Dim(0), s.Dim(1), s.Dim(2)/k, s.Dim(3)/k), s, k)
}

func softmaxRows(be compute.Backend, a *Tensor) *Tensor {
	return SoftmaxRowsInto(be, New(a.shape...), a)
}

func dense(s *SpikeTensor) *Tensor { return s.DenseInto(nil, New(s.shape...)) }

// bit reports whether element (r, c) of s's [rows, cols] view is set.
func bit(s *SpikeTensor, r, c int) bool {
	return s.bits[r*s.words+c>>6]>>(uint(c)&63)&1 != 0
}

// scatterSpikes packs a list of set linear element indices into a fresh
// SpikeTensor of the given shape.
func scatterSpikes(idx []int, shape ...int) *SpikeTensor {
	rows, _, words := spikeDims(shape)
	bits64 := make([]uint64, rows*words)
	counts := make([]int, rows)
	ScatterSpikesInto(bits64, counts, idx, shape...)
	return new(SpikeTensor).Init(bits64, counts, shape...)
}
