package tensor

import (
	"fmt"

	"snnsec/internal/compute"
)

func assertSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// binaryOn applies fn over matching index blocks of a fresh output tensor.
func binaryOn(be compute.Backend, op string, a, b *Tensor, fn func(dst, x, y []float64)) *Tensor {
	assertSameShape(op, a, b)
	out := New(a.shape...)
	backendOr(be).ParallelFor(len(out.data), elemGrain, func(lo, hi int) {
		fn(out.data[lo:hi], a.data[lo:hi], b.data[lo:hi])
	})
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor { return SubOn(nil, a, b) }

// SubOn returns a - b elementwise on be (nil selects the default backend).
func SubOn(be compute.Backend, a, b *Tensor) *Tensor {
	return binaryOn(be, "Sub", a, b, func(dst, x, y []float64) {
		for i := range dst {
			dst[i] = x[i] - y[i]
		}
	})
}

// AddInto computes dst += src elementwise in place.
func AddInto(dst, src *Tensor) { AddIntoOn(nil, dst, src) }

// AddIntoOn computes dst += src elementwise in place on be (nil selects
// the default backend). It is the gradient-accumulation primitive
// (AccumGrad), so the inner loop is the 4-wide unrolled addRow.
func AddIntoOn(be compute.Backend, dst, src *Tensor) {
	assertSameShape("AddInto", dst, src)
	backendOr(be).ParallelFor(len(dst.data), elemGrain, func(lo, hi int) {
		addRow(dst.data[lo:hi], src.data[lo:hi])
	})
}

// addRow accumulates src into dst elementwise (dst += src), 4-wide
// unrolled.
func addRow(dst, src []float64) {
	n := len(dst)
	src = src[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		d := (*[4]float64)(dst[j:])
		s := (*[4]float64)(src[j:])
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; j < n; j++ {
		dst[j] += src[j]
	}
}

// ScaleInto computes dst *= s in place.
func ScaleInto(dst *Tensor, s float64) {
	for i := range dst.data {
		dst.data[i] *= s
	}
}

// ClampInto limits each element of dst to [lo, hi] in place.
func ClampInto(dst *Tensor, lo, hi float64) {
	for i, v := range dst.data {
		if v < lo {
			dst.data[i] = lo
		} else if v > hi {
			dst.data[i] = hi
		}
	}
}
