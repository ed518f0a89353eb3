// Package tensor provides dense float64 tensors and the numerical kernels
// (elementwise arithmetic, matrix multiplication, 2-D convolution, pooling,
// reductions) that back the autodiff engine. Tensors are row-major and
// always contiguous; views are not shared except through explicit Reshape,
// which reuses the underlying data slice.
//
// The hot kernels are written for CPU throughput without giving up exact
// reproducibility: matmuls are cache-blocked and register-tiled (with an
// AVX micro-kernel on amd64), convolution runs panel kernels of its own
// that read zero-bordered copies of the input planes through tables of
// tap offsets, without a column matrix, and every kernel partitions its
// work through a compute.Backend. Binary spike
// activations additionally have a first-class bit-packed representation
// (SpikeTensor, spike.go) that the spiking producers emit and the
// pooling kernels read in place. All of it is bit-identical —
// across the Serial and Parallel backends, across the scalar and AVX
// tiles, across the packed and dense forms, and against the
// straightforward reference kernels retained in naive.go. See DESIGN.md
// for the blocking scheme, the spike-plane layout and the determinism
// contract.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major, contiguous float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
	// dims backs shape for tensors of rank ≤ maxInlineRank, so a tensor
	// header is one allocation.
	dims [maxInlineRank]int
}

const maxInlineRank = 4

// ownShape returns a copy of shape, stored in dims when it fits, so a
// header of rank ≤ maxInlineRank is one object.
func ownShape(dims *[maxInlineRank]int, shape []int) []int {
	if len(shape) <= maxInlineRank {
		return dims[:copy(dims[:], shape)]
	}
	return append([]int(nil), shape...)
}

// setHeader makes t a tensor over data with its own copy of shape and
// returns it.
func (t *Tensor) setHeader(data []float64, shape []int) *Tensor {
	*t = Tensor{data: data}
	t.shape = ownShape(&t.dims, shape)
	return t
}

// New returns a zero-filled tensor with the given shape. A tensor with no
// dimensions is a scalar holding one element.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return new(Tensor).setHeader(make([]float64, n), shape)
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	return new(Tensor).Init(data, shape...)
}

// Init makes t what FromSlice(data, shape...) returns and returns t. It
// writes every field of t, so a caller that keeps headers of its own (a
// tape's header slab) reuses one without allocating.
func (t *Tensor) Init(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), append([]int(nil), shape...), n))
	}
	return t.setHeader(data, shape)
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Format a copy (as checkDst does): shape itself must not
			// escape, or every New(d0, d1) and FromSlice(buf, d0, d1)
			// would heap-allocate its argument list.
			panic(fmt.Sprintf("tensor: invalid dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutating it mutates
// the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal element
// counts (shape itself may differ, matching Reshape semantics).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Reshape returns a tensor with the new shape sharing t's data. The total
// element count must be preserved. One dimension may be -1, in which case
// it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor { return t.ReshapeInto(new(Tensor), shape...) }

// ReshapeInto is Reshape writing the view into the header dst, which the
// caller keeps, and returning dst.
func (t *Tensor) ReshapeInto(dst *Tensor, shape ...int) *Tensor {
	dst.setHeader(t.data, shape)
	inferDim(dst.shape, t.shape, len(t.data))
	return dst
}

// inferDim checks in place that shape describes n elements, first
// replacing its one permitted -1 dimension by the size that makes it so.
// from is the shape being reshaped, for the messages.
func inferDim(shape, from []int, n int) {
	infer := -1
	have := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		case d <= 0:
			panic(fmt.Sprintf("tensor: invalid dimension %d in reshape %v", d, shape))
		default:
			have *= d
		}
	}
	if infer >= 0 {
		if n%have != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", from, shape))
		}
		shape[infer] = n / have
		have = n
	}
	if have != n {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes element count", from, shape))
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// ShapeEquals reports whether t's shape equals the given dims.
func (t *Tensor) ShapeEquals(shape ...int) bool {
	if len(t.shape) != len(shape) {
		return false
	}
	for i := range shape {
		if t.shape[i] != shape[i] {
			return false
		}
	}
	return true
}

// index converts multi-dimensional indices to a flat offset.
func (t *Tensor) index(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v rank mismatch for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx)] }

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx)] = v }

// Slice returns a copy of subtensor t[i] along the first dimension: for a
// tensor of shape [N, d1, ..., dk] it returns shape [d1, ..., dk].
func (t *Tensor) Slice(i int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: Slice of scalar")
	}
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: Slice index %d out of range %d", i, t.shape[0]))
	}
	sub := len(t.data) / t.shape[0]
	out := New(t.shape[1:]...)
	copy(out.data, t.data[i*sub:(i+1)*sub])
	return out
}

// SetSlice copies src into subtensor i along the first dimension.
func (t *Tensor) SetSlice(i int, src *Tensor) {
	sub := len(t.data) / t.shape[0]
	if src.Len() != sub {
		panic(fmt.Sprintf("tensor: SetSlice size mismatch %d vs %d", src.Len(), sub))
	}
	copy(t.data[i*sub:(i+1)*sub], src.data)
}

// Item returns the single element of a one-element tensor.
func (t *Tensor) Item() float64 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.data)))
	}
	return t.data[0]
}

// String renders a compact, shape-prefixed representation, eliding large
// tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		b.WriteString("{")
		for i, v := range t.data {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%.4g", v)
		}
		b.WriteString("}")
	} else {
		fmt.Fprintf(&b, "{%.4g, %.4g, ... (%d elements)}", t.data[0], t.data[1], len(t.data))
	}
	return b.String()
}

// AllClose reports whether all elements of t and o agree within atol.
func (t *Tensor) AllClose(o *Tensor, atol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-o.data[i]) > atol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
