package tensor

import (
	"fmt"
	"math"

	"snnsec/internal/compute"
)

// The scalar reductions (Sum, Mean, Dot, the norms) deliberately stay
// serial: they are memory-bound, and parallel partial sums would change
// the floating-point accumulation order, breaking the bit-identical
// Serial/Parallel guarantee the backend contract makes. Row-wise
// reductions (ArgmaxRowsOn, SoftmaxRowsInto, SumRowsInto) have independent
// outputs per row and do run on the backend.

// Sum returns the sum of all elements.
func Sum(a *Tensor) float64 {
	var s float64
	for _, v := range a.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float64 { return Sum(a) / float64(len(a.data)) }

// ArgmaxRowsOn returns, for a 2-D tensor, the argmax of each row — the
// predicted class per sample for a [batch, classes] logit matrix —
// computed on be (nil selects the default backend), partitioned over
// rows.
func ArgmaxRowsOn(be compute.Backend, a *Tensor) []int {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows on %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := make([]int, m)
	backendOr(be).ParallelFor(m, grainRows(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.data[i*n : (i+1)*n]
			best, bi := math.Inf(-1), 0
			for j, v := range row {
				if v > best {
					best, bi = v, j
				}
			}
			out[i] = bi
		}
	})
	return out
}

// Dot returns the inner product of two tensors with equal element counts.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %v vs %v", a.shape, b.shape))
	}
	var s float64
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of all elements.
func Norm2(a *Tensor) float64 { return math.Sqrt(Dot(a, a)) }

// NormInf returns the maximum absolute element.
func NormInf(a *Tensor) float64 {
	var m float64
	for _, v := range a.data {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// SoftmaxRowsInto writes the row-wise softmax of a over every element of
// out, which may be dirty arena memory, and returns out.
func SoftmaxRowsInto(be compute.Backend, out, a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows on %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	checkDst("SoftmaxRows", out, m, n)
	backendOr(be).ParallelFor(m, grainRows(4*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.data[i*n : (i+1)*n]
			orow := out.data[i*n : (i+1)*n]
			mx := math.Inf(-1)
			for _, v := range row {
				if v > mx {
					mx = v
				}
			}
			var z float64
			for j, v := range row {
				e := math.Exp(v - mx)
				orow[j] = e
				z += e
			}
			for j := range orow {
				orow[j] /= z
			}
		}
	})
	return out
}
