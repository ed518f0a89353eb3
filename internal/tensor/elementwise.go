package tensor

import (
	"fmt"
	"math"

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

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor { return AddOn(nil, a, b) }

// AddOn returns a + b elementwise on be (nil selects the default backend).
func AddOn(be compute.Backend, a, b *Tensor) *Tensor {
	return binaryOn(be, "Add", a, b, func(dst, x, y []float64) {
		for i := range dst {
			dst[i] = x[i] + y[i]
		}
	})
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

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor { return MulOn(nil, a, b) }

// MulOn returns a * b elementwise on be (nil selects the default backend).
func MulOn(be compute.Backend, a, b *Tensor) *Tensor {
	return binaryOn(be, "Mul", a, b, func(dst, x, y []float64) {
		for i := range dst {
			dst[i] = x[i] * y[i]
		}
	})
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor { return DivOn(nil, a, b) }

// DivOn returns a / b elementwise on be (nil selects the default backend).
func DivOn(be compute.Backend, a, b *Tensor) *Tensor {
	return binaryOn(be, "Div", a, b, func(dst, x, y []float64) {
		for i := range dst {
			dst[i] = x[i] / y[i]
		}
	})
}

// Scale returns a*s elementwise.
func Scale(a *Tensor, s float64) *Tensor { return ScaleOn(nil, a, s) }

// ScaleOn returns a*s elementwise on be (nil selects the default backend).
func ScaleOn(be compute.Backend, a *Tensor, s float64) *Tensor {
	out := New(a.shape...)
	backendOr(be).ParallelFor(len(out.data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] * s
		}
	})
	return out
}

// AddScalar returns a+s elementwise.
func AddScalar(a *Tensor, s float64) *Tensor { return AddScalarOn(nil, a, s) }

// AddScalarOn returns a+s elementwise on be (nil selects the default
// backend).
func AddScalarOn(be compute.Backend, a *Tensor, s float64) *Tensor {
	out := New(a.shape...)
	backendOr(be).ParallelFor(len(out.data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] + s
		}
	})
	return out
}

// Apply returns f applied elementwise.
func Apply(a *Tensor, f func(float64) float64) *Tensor { return ApplyOn(nil, a, f) }

// ApplyOn returns f applied elementwise on be (nil selects the default
// backend). f must be safe for concurrent calls.
func ApplyOn(be compute.Backend, a *Tensor, f func(float64) float64) *Tensor {
	out := New(a.shape...)
	backendOr(be).ParallelFor(len(out.data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = f(a.data[i])
		}
	})
	return out
}

// Exp returns e^a elementwise.
func Exp(a *Tensor) *Tensor { return Apply(a, math.Exp) }

// Log returns ln(a) elementwise.
func Log(a *Tensor) *Tensor { return Apply(a, math.Log) }

// Tanh returns tanh(a) elementwise.
func Tanh(a *Tensor) *Tensor { return Apply(a, math.Tanh) }

// TanhOn returns tanh(a) elementwise on be.
func TanhOn(be compute.Backend, a *Tensor) *Tensor { return ApplyOn(be, a, math.Tanh) }

// Sigmoid returns the logistic function of a elementwise.
func Sigmoid(a *Tensor) *Tensor { return SigmoidOn(nil, a) }

// SigmoidOn returns the logistic function of a elementwise on be.
func SigmoidOn(be compute.Backend, a *Tensor) *Tensor {
	return ApplyOn(be, a, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
}

// ReLU returns max(a, 0) elementwise.
func ReLU(a *Tensor) *Tensor { return ReLUOn(nil, a) }

// ReLUOn returns max(a, 0) elementwise on be.
func ReLUOn(be compute.Backend, a *Tensor) *Tensor {
	return ApplyOn(be, a, func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	})
}

// Abs returns |a| elementwise.
func Abs(a *Tensor) *Tensor { return Apply(a, math.Abs) }

// Clamp returns a with each element limited to [lo, hi].
func Clamp(a *Tensor, lo, hi float64) *Tensor {
	return Apply(a, func(v float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	})
}

// Maximum returns the elementwise maximum of a and b.
func Maximum(a, b *Tensor) *Tensor {
	return binaryOn(nil, "Maximum", a, b, func(dst, x, y []float64) {
		for i := range dst {
			dst[i] = math.Max(x[i], y[i])
		}
	})
}

// Minimum returns the elementwise minimum of a and b.
func Minimum(a, b *Tensor) *Tensor {
	return binaryOn(nil, "Minimum", a, b, func(dst, x, y []float64) {
		for i := range dst {
			dst[i] = math.Min(x[i], y[i])
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

// SubInto computes dst -= src elementwise in place.
func SubInto(dst, src *Tensor) {
	assertSameShape("SubInto", dst, src)
	for i := range dst.data {
		dst.data[i] -= src.data[i]
	}
}

// MulInto computes dst *= src elementwise in place.
func MulInto(dst, src *Tensor) {
	assertSameShape("MulInto", dst, src)
	for i := range dst.data {
		dst.data[i] *= src.data[i]
	}
}

// ScaleInto computes dst *= s in place.
func ScaleInto(dst *Tensor, s float64) {
	for i := range dst.data {
		dst.data[i] *= s
	}
}

// Axpy computes dst += alpha*src in place.
func Axpy(alpha float64, src, dst *Tensor) {
	assertSameShape("Axpy", dst, src)
	for i := range dst.data {
		dst.data[i] += alpha * src.data[i]
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
