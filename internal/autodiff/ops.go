package autodiff

import (
	"fmt"
	"math"

	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// spikeFor makes the per-call sparse-vs-dense choice for an operation
// whose input may carry a packed spike plane: it returns the plane when
// the compute dispatch policy selects the spike kernel for the plane's
// density (read from the popcount index — O(rows), already cached), and
// nil when the dense kernel should run. Recorded pullbacks keep the
// dispatch their forward op chose, so one op's forward and backward
// always agree. The spike kernels are bit-identical to the dense ones,
// so the choice is pure speed — it never changes a result.
func spikeFor(sp *tensor.SpikeTensor, f compute.KernelFamily) *tensor.SpikeTensor {
	if sp == nil || !compute.UseSparse(f, sp.Density()) {
		return nil
	}
	return sp
}

// Add returns a + b elementwise.
func (tp *Tape) Add(a, b *Value) *Value {
	out := tensor.AddOn(tp.Backend(), a.Data, b.Data)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(g)
		b.AccumGrad(g)
	}, a, b)
}

// Sub returns a - b elementwise.
func (tp *Tape) Sub(a, b *Value) *Value {
	out := tensor.SubOn(tp.Backend(), a.Data, b.Data)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(g)
		if b.requiresGrad {
			b.AccumGrad(tensor.NegOn(tp.Backend(), g))
		}
	}, a, b)
}

// Mul returns the elementwise product a * b.
func (tp *Tape) Mul(a, b *Value) *Value {
	out := tensor.MulOn(tp.Backend(), a.Data, b.Data)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.AccumGrad(tensor.MulOn(tp.Backend(), g, b.Data))
		}
		if b.requiresGrad {
			b.AccumGrad(tensor.MulOn(tp.Backend(), g, a.Data))
		}
	}, a, b)
}

// Scale returns a * s for scalar s.
func (tp *Tape) Scale(a *Value, s float64) *Value {
	out := tensor.ScaleOn(tp.Backend(), a.Data, s)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(tensor.ScaleOn(tp.Backend(), g, s))
	}, a)
}

// AddScalar returns a + s elementwise for scalar s.
func (tp *Tape) AddScalar(a *Value, s float64) *Value {
	out := tensor.AddScalarOn(tp.Backend(), a.Data, s)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(g)
	}, a)
}

// MatMul returns the matrix product a·b of 2-D values. When a carries a
// packed spike plane (a binary LIF/encoder output) and the plane's
// density is below the dispatch policy's crossover, both the product
// and the weight-gradient pullback run the multiply-free
// select-accumulate kernels — bit-identical to the dense kernels, so
// the choice never changes a result. The pullback forms dA and dB each
// only when its operand requires a gradient.
func (tp *Tape) MatMul(a, b *Value) *Value {
	sp := spikeFor(a.spikes, compute.KernelMatMul)
	var out *tensor.Tensor
	if sp != nil {
		out = tensor.SpikeMatMulOn(tp.Backend(), sp, b.Data)
	} else {
		out = tensor.MatMulOn(tp.Backend(), a.Data, b.Data)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		// dA = g·Bᵀ, dB = Aᵀ·g
		if a.requiresGrad {
			a.AccumGrad(tensor.MatMulABTOn(tp.Backend(), g, b.Data))
		}
		if !b.requiresGrad {
			return
		}
		if sp != nil {
			b.AccumGrad(tensor.SpikeMatMulATBOn(tp.Backend(), sp, g))
		} else {
			b.AccumGrad(tensor.MatMulATBOn(tp.Backend(), a.Data, g))
		}
	}, a, b)
}

// AddRowVector returns the 2-D value a with 1-D bias v added to each row.
func (tp *Tape) AddRowVector(a, v *Value) *Value {
	out := tensor.AddRowVectorOn(tp.Backend(), a.Data, v.Data)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(g)
		if v.requiresGrad {
			v.AccumGrad(tensor.SumRowsOn(tp.Backend(), g))
		}
	}, a, v)
}

// Reshape returns a view of a with a new shape. The gradient is reshaped
// back on the way down. A packed spike plane survives any reshape that
// preserves the leading (batch) dimension — e.g. Flatten — so the BPTT
// loop stays in packed form across layer-shape changes.
func (tp *Tape) Reshape(a *Value, shape ...int) *Value {
	out := a.Data.Reshape(shape...)
	inShape := a.Data.Shape()
	v := tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(g.Reshape(inShape...))
	}, a)
	if a.spikes != nil && out.Dim(0) == a.Data.Dim(0) {
		v.spikes = a.spikes.Reshape(out.Shape()...)
	}
	return v
}

// unaryPullback is the pullback of an elementwise activation with a
// single parent: fill writes da (every element — the scratch comes dirty
// from the tape's backend pool) from the output gradient g, da is
// accumulated into a, and the scratch goes back to the pool.
func (tp *Tape) unaryPullback(a *Value, fill func(da, g []float64, lo, hi int)) func(g *tensor.Tensor) {
	return func(g *tensor.Tensor) {
		be := tp.Backend()
		da, gd := be.Get(g.Len()), g.Data()
		be.ParallelFor(len(da), 4096, func(lo, hi int) { fill(da, gd, lo, hi) })
		a.AccumGrad(tensor.FromSlice(da, g.Shape()...))
		be.Put(da)
	}
}

// ReLU returns max(a, 0) elementwise.
func (tp *Tape) ReLU(a *Value) *Value {
	out := tensor.ReLUOn(tp.Backend(), a.Data)
	ad := a.Data.Data()
	return tp.NewOp(out, tp.unaryPullback(a, func(da, g []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			if ad[i] > 0 {
				da[i] = g[i]
			} else {
				da[i] = 0
			}
		}
	}), a)
}

// Sigmoid returns the logistic function of a elementwise.
func (tp *Tape) Sigmoid(a *Value) *Value {
	out := tensor.SigmoidOn(tp.Backend(), a.Data)
	od := out.Data()
	return tp.NewOp(out, tp.unaryPullback(a, func(da, g []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			da[i] = g[i] * od[i] * (1 - od[i])
		}
	}), a)
}

// Tanh returns tanh(a) elementwise.
func (tp *Tape) Tanh(a *Value) *Value {
	out := tensor.TanhOn(tp.Backend(), a.Data)
	od := out.Data()
	return tp.NewOp(out, tp.unaryPullback(a, func(da, g []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			da[i] = g[i] * (1 - od[i]*od[i])
		}
	}), a)
}

// Conv2D returns the batched 2-D convolution of x [N,C,H,W] with weight
// [F,C,KH,KW] and optional bias [F] (pass nil for no bias). Forward and
// pullback both run the batched im2col pipeline: one matmul over the
// whole batch per product, on the tape's backend. When x carries a
// packed spike plane whose density is below the dispatch policy's
// crossover, the forward pass and the weight-gradient pullback run the
// spike-aware pipeline (packed im2col + select-accumulate) instead,
// never materialising a dense column matrix; results are bit-identical
// either way. The pullback asks the kernel for exactly the gradients
// whose parent requires one: frozen weights skip the column expansion
// and the dW/db partials, a constant input (the first synapse in
// training) skips the Wᵀ·G product and the col2im scatter.
func (tp *Tape) Conv2D(x, weight, bias *Value, p tensor.ConvParams) *Value {
	var bt *tensor.Tensor
	var need tensor.ConvGrads
	if x.requiresGrad {
		need |= tensor.ConvGradInput
	}
	if weight.requiresGrad {
		need |= tensor.ConvGradWeight
	}
	if bias != nil {
		bt = bias.Data
		if bias.requiresGrad {
			need |= tensor.ConvGradBias
		}
	}
	sp := spikeFor(x.spikes, compute.KernelConv)
	var out *tensor.Tensor
	var col *tensor.SpikeTensor
	if sp != nil {
		// The packed column matrix is 1/64 the dense one, so retaining
		// it from the forward pass for the weight-gradient pullback is
		// cheap where retaining the dense expansion would not be; with
		// no weight gradient to come it stays pooled scratch.
		if need&tensor.ConvGradWeight != 0 {
			col = tensor.SpikeIm2ColOn(tp.Backend(), sp, weight.Data.Dim(2), weight.Data.Dim(3), p)
		}
		out = tensor.SpikeConv2DWithColOn(tp.Backend(), sp, col, weight.Data, bt, p)
	} else {
		out = tensor.Conv2DOn(tp.Backend(), x.Data, weight.Data, bt, p)
	}
	parents := []*Value{x, weight}
	if bias != nil {
		parents = append(parents, bias)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		var dx, dw, db *tensor.Tensor
		if sp != nil {
			dx, dw, db = tensor.SpikeConv2DGradsWithColOn(tp.Backend(), sp, col, weight.Data, g, p, need)
		} else {
			dx, dw, db = tensor.Conv2DGradsOn(tp.Backend(), x.Data, weight.Data, g, p, need)
		}
		if dx != nil {
			x.AccumGrad(dx)
		}
		if dw != nil {
			weight.AccumGrad(dw)
		}
		if db != nil {
			bias.AccumGrad(db)
		}
	}, parents...)
}

// AvgPool2D returns k×k average pooling of x [N,C,H,W]. A packed spike
// input pools by window popcount — bit-identical to the dense window
// sum, since a window of 0/1 values sums to an exact small integer.
// The pooled averages are no longer binary, so the output carries no
// packed plane either way.
func (tp *Tape) AvgPool2D(x *Value, k int) *Value {
	h, w := x.Data.Dim(2), x.Data.Dim(3)
	var out *tensor.Tensor
	if sp := spikeFor(x.spikes, compute.KernelPool); sp != nil && k <= 64 {
		out = tensor.SpikeAvgPool2DOn(tp.Backend(), sp, k)
	} else {
		out = tensor.AvgPool2DOn(tp.Backend(), x.Data, k)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		x.AccumGrad(tensor.AvgPool2DBackwardOn(tp.Backend(), g, k, h, w))
	}, x)
}

// MaxPool2D returns k×k max pooling of x [N,C,H,W]. A packed spike
// input pools on the bit plane (any-bit-set per window, first-set-bit
// argmax — bit-identical values and argmaxes to the dense kernel), and
// since the max of a binary window is binary, the pooled output carries
// the packed plane onward: a synapse behind a max pool stays on the
// spike kernels instead of falling back dense.
func (tp *Tape) MaxPool2D(x *Value, k int) *Value {
	h, w := x.Data.Dim(2), x.Data.Dim(3)
	if sp := spikeFor(x.spikes, compute.KernelPool); sp != nil && k <= 64 {
		out, arg, spOut := tensor.SpikeMaxPool2DOn(tp.Backend(), sp, k)
		v := tp.NewOp(out, func(g *tensor.Tensor) {
			x.AccumGrad(tensor.MaxPool2DBackwardOn(tp.Backend(), g, arg, k, h, w))
		}, x)
		v.AttachSpikes(spOut)
		return v
	}
	out, arg := tensor.MaxPool2DOn(tp.Backend(), x.Data, k)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		x.AccumGrad(tensor.MaxPool2DBackwardOn(tp.Backend(), g, arg, k, h, w))
	}, x)
}

// Sum returns the scalar sum of all elements of a.
func (tp *Tape) Sum(a *Value) *Value {
	out := tensor.Scalar(tensor.Sum(a.Data))
	return tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(tensor.Full(g.Item(), a.Data.Shape()...))
	}, a)
}

// Mean returns the scalar mean of all elements of a.
func (tp *Tape) Mean(a *Value) *Value {
	n := float64(a.Data.Len())
	out := tensor.Scalar(tensor.Sum(a.Data) / n)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(tensor.Full(g.Item()/n, a.Data.Shape()...))
	}, a)
}

// SoftmaxCrossEntropy returns the mean cross-entropy loss between logits
// [B,C] and integer class labels (len B). The pullback is the standard
// (softmax − onehot)/B.
func (tp *Tape) SoftmaxCrossEntropy(logits *Value, labels []int) *Value {
	if logits.Data.Dims() != 2 {
		panic(fmt.Sprintf("autodiff: SoftmaxCrossEntropy needs [B,C] logits, got %v", logits.Data.Shape()))
	}
	b, c := logits.Data.Dim(0), logits.Data.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("autodiff: %d labels for batch of %d", len(labels), b))
	}
	probs := tensor.SoftmaxRowsOn(tp.Backend(), logits.Data)
	var loss float64
	for i, l := range labels {
		if l < 0 || l >= c {
			panic(fmt.Sprintf("autodiff: label %d out of range [0,%d)", l, c))
		}
		p := probs.At(i, l)
		loss -= math.Log(math.Max(p, 1e-300))
	}
	loss /= float64(b)
	out := tensor.Scalar(loss)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		scale := g.Item() / float64(b)
		grad := probs.Clone()
		for i, l := range labels {
			grad.Set(grad.At(i, l)-1, i, l)
		}
		tensor.ScaleInto(grad, scale)
		logits.AccumGrad(grad)
	}, logits)
}

// Concat0 concatenates values along dimension 0. All inputs must share the
// trailing shape.
func (tp *Tape) Concat0(vs ...*Value) *Value {
	if len(vs) == 0 {
		panic("autodiff: Concat0 of nothing")
	}
	first := vs[0].Data.Shape()
	rows := 0
	for _, v := range vs {
		s := v.Data.Shape()
		if len(s) != len(first) {
			panic("autodiff: Concat0 rank mismatch")
		}
		for i := 1; i < len(s); i++ {
			if s[i] != first[i] {
				panic("autodiff: Concat0 trailing-shape mismatch")
			}
		}
		rows += s[0]
	}
	shape := append([]int{rows}, first[1:]...)
	out := tensor.New(shape...)
	off := 0
	for _, v := range vs {
		copy(out.Data()[off:], v.Data.Data())
		off += v.Data.Len()
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		off := 0
		for _, v := range vs {
			n := v.Data.Len()
			// AccumGrad copies out of g, so the part can alias it.
			v.AccumGrad(tensor.FromSlice(g.Data()[off:off+n], v.Data.Shape()...))
			off += n
		}
	}, vs...)
}

// Detach returns a constant copy of a: the value flows forward but no
// gradient flows back through it. Used for truncated BPTT.
func (tp *Tape) Detach(a *Value) *Value {
	return tp.Const(a.Data.Clone())
}
