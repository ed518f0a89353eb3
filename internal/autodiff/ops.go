package autodiff

import (
	"fmt"
	"math"

	"snnsec/internal/tensor"
)

// each writes f(i) over every element i of t — an Output or a Product,
// dirty arena memory — on the tape's backend and returns t.
func (tp *Tape) each(t *tensor.Tensor, f func(i int) float64) *tensor.Tensor {
	d := t.Data()
	tp.Backend().ParallelFor(len(d), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d[i] = f(i)
		}
	})
	return t
}

// operands returns the data of the two operands of an elementwise
// operation, which must share a shape.
func operands(op string, a, b *Value) (ad, bd []float64) {
	if !a.Data.SameShape(b.Data) {
		panic(fmt.Sprintf("autodiff: %s shape mismatch %v vs %v", op, a.Data.Shape(), b.Data.Shape()))
	}
	return a.Data.Data(), b.Data.Data()
}

// Add returns a + b elementwise.
func (tp *Tape) Add(a, b *Value) *Value {
	ad, bd := operands("Add", a, b)
	out := tp.each(tp.Output(a.Shape()...), func(i int) float64 { return ad[i] + bd[i] })
	if !tp.Tracks(a, b) {
		return tp.Const(out)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(g)
		b.AccumGrad(g)
	}, a, b)
}

// Scale returns a * s for scalar s.
func (tp *Tape) Scale(a *Value, s float64) *Value {
	ad := a.Data.Data()
	out := tp.each(tp.Output(a.Shape()...), func(i int) float64 { return ad[i] * s })
	if !tp.Tracks(a) {
		return tp.Const(out)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		gd := g.Data()
		a.HandGrad(tp.each(tp.Product(g.Shape()...), func(i int) float64 { return 0 + gd[i]*s }))
	}, a)
}

// MatMul returns the matrix product a·b of 2-D values on the dense
// kernels. A packed-only a is unpacked into pooled scratch for the
// product, and again for the weight-gradient pullback. The pullback
// forms dA and dB each only when its operand requires a gradient.
func (tp *Tape) MatMul(a, b *Value) *Value {
	be := tp.Backend()
	ad, pooled := a.dense()
	if pooled {
		defer be.Put(ad.Data())
	}
	out := tensor.MatMulInto(be, tp.Output(a.Shape()[0], b.Data.Dim(1)), ad, b.Data)
	if !tp.Tracks(a, b) {
		return tp.Const(out)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		// dA = g·Bᵀ, dB = Aᵀ·g
		if a.requiresGrad {
			a.HandGrad(tensor.MatMulABTInto(be, tp.Product(a.Shape()...), g, b.Data))
		}
		if !b.requiresGrad {
			return
		}
		ad, pooled := a.dense()
		if pooled {
			defer be.Put(ad.Data())
		}
		b.HandGrad(tensor.MatMulATBInto(be, tp.Product(b.Shape()...), ad, g))
	}, a, b)
}

// AddRowVector returns the 2-D value a with 1-D bias v added to each row.
func (tp *Tape) AddRowVector(a, v *Value) *Value {
	out := tensor.AddRowVectorInto(tp.Backend(), tp.Output(a.Shape()...), a.Data, v.Data)
	if !tp.Tracks(a, v) {
		return tp.Const(out)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		a.AccumGrad(g)
		if v.requiresGrad {
			v.HandGrad(tensor.SumRowsInto(tp.Backend(), tp.Product(v.Shape()...), g))
		}
	}, a, v)
}

// Reshape returns a view of a with a new shape. The gradient is reshaped
// back on the way down. A packed spike plane survives any reshape that
// preserves the leading (batch) dimension — e.g. Flatten — so the BPTT
// loop stays in packed form across layer-shape changes; a packed-only
// constant admits no other reshape.
func (tp *Tape) Reshape(a *Value, shape ...int) *Value {
	if a.Data == nil {
		return tp.Spikes(a.spikes.ReshapeInto(tp.planes.next(), shape...))
	}
	out := a.Data.ReshapeInto(tp.header(), shape...)
	var v *Value
	if tp.Tracks(a) {
		inShape := a.Data.Shape()
		v = tp.NewOp(out, func(g *tensor.Tensor) {
			a.AccumGrad(g.ReshapeInto(tp.header(), inShape...))
		}, a)
	} else {
		v = tp.Const(out)
	}
	if a.spikes != nil && out.Dim(0) == a.Data.Dim(0) {
		v.spikes = a.spikes.ReshapeInto(tp.planes.next(), out.Shape()...)
	}
	return v
}

// unary records an elementwise activation y = fwd(x) of a single parent
// whose pullback hands over da = bwd(g, x, y); bwd returns 0 + v wherever
// v could be −0.
func (tp *Tape) unary(a *Value, fwd func(x float64) float64, bwd func(g, x, y float64) float64) *Value {
	ad := a.Data.Data()
	out := tp.each(tp.Output(a.Shape()...), func(i int) float64 { return fwd(ad[i]) })
	if !tp.Tracks(a) {
		return tp.Const(out)
	}
	od := out.Data()
	return tp.NewOp(out, func(g *tensor.Tensor) {
		gd := g.Data()
		a.HandGrad(tp.each(tp.Product(g.Shape()...), func(i int) float64 { return bwd(gd[i], ad[i], od[i]) }))
	}, a)
}

// ReLU returns max(a, 0) elementwise — a itself for a packed-only
// constant, on whose binary plane it is the identity.
func (tp *Tape) ReLU(a *Value) *Value {
	if a.Data == nil {
		return a
	}
	return tp.unary(a, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}, func(g, x, _ float64) float64 {
		if x > 0 {
			return g // a gradient buffer holds no −0
		}
		return 0
	})
}

// Conv2D returns the batched 2-D convolution of x [N,C,H,W] with weight
// [F,C,KH,KW] and optional bias [F] (pass nil for no bias), forward and
// pullback each one batched dense kernel on the tape's backend; a
// packed-only x is unpacked into pooled scratch for each of the two
// calls. The pullback asks the kernel for exactly the gradients whose
// parent requires one: frozen weights skip the padded planes and the
// dW/db partials, a constant input (the first synapse in training) skips
// the Wᵀ·G product and the col2im scatter.
func (tp *Tape) Conv2D(x, weight, bias *Value, p tensor.ConvParams) *Value {
	be := tp.Backend()
	var bt *tensor.Tensor
	if bias != nil {
		bt = bias.Data
	}
	xs := x.Shape()
	kh, kw := weight.Data.Dim(2), weight.Data.Dim(3)
	xd, pooled := x.dense()
	if pooled {
		defer be.Put(xd.Data())
	}
	out := tp.Output(xs[0], weight.Data.Dim(0), p.ConvOutSize(xs[2], kh), p.ConvOutSize(xs[3], kw))
	tensor.Conv2DInto(be, out, xd, weight.Data, bt, p)
	if !tp.Tracks(x, weight, bias) {
		return tp.Const(out)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		dx, dw, db := tp.productFor(x), tp.productFor(weight), tp.productFor(bias)
		xd, pooled := x.dense()
		if pooled {
			defer be.Put(xd.Data())
		}
		tensor.Conv2DGradsInto(be, dx, dw, db, xd, weight.Data, g, p)
		if dx != nil {
			x.HandGrad(dx)
		}
		if dw != nil {
			weight.HandGrad(dw)
		}
		if db != nil {
			bias.HandGrad(db)
		}
	}, x, weight, bias)
}

// productFor returns a Product shaped like v when a gradient flows into
// v, and nil — to the kernels, a gradient nobody reads — when none does
// or v is itself nil.
func (tp *Tape) productFor(v *Value) *tensor.Tensor {
	if v == nil || !v.requiresGrad {
		return nil
	}
	return tp.Product(v.Shape()...)
}

// AvgPool2D returns k×k average pooling of x [N,C,H,W]. A packed spike
// input pools by window popcount — bit-identical to the dense window
// sum, since a window of 0/1 values sums to an exact small integer.
// The pooled averages are no longer binary, so the output carries no
// packed plane either way.
func (tp *Tape) AvgPool2D(x *Value, k int) *Value {
	be := tp.Backend()
	xs := x.Shape()
	out := tp.Output(xs[0], xs[1], xs[2]/k, xs[3]/k)
	if sp := x.spikes; sp != nil && k <= 64 {
		tensor.SpikeAvgPool2DInto(be, out, sp, k)
	} else {
		xd, pooled := x.dense()
		if pooled {
			defer be.Put(xd.Data())
		}
		tensor.AvgPool2DInto(be, out, xd, k)
	}
	if !tp.Tracks(x) {
		return tp.Const(out)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		x.HandGrad(tensor.AvgPool2DBackwardInto(be, tp.Product(x.Shape()...), g, k))
	}, x)
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
	probs := tensor.SoftmaxRowsInto(tp.Backend(), tp.Output(b, c), logits.Data).Data()
	var loss float64
	for i, l := range labels {
		if l < 0 || l >= c {
			panic(fmt.Sprintf("autodiff: label %d out of range [0,%d)", l, c))
		}
		loss -= math.Log(math.Max(probs[i*c+l], 1e-300))
	}
	out := tp.Output()
	out.Data()[0] = loss / float64(b)
	if !tp.Tracks(logits) {
		return tp.Const(out)
	}
	return tp.NewOp(out, func(g *tensor.Tensor) {
		scale := g.Item() / float64(b)
		grad := tp.Product(b, c)
		gd := grad.Data()
		for i, l := range labels {
			for j := 0; j < c; j++ {
				p := probs[i*c+j]
				if j == l {
					p -= 1
				}
				gd[i*c+j] = 0 + p*scale
			}
		}
		logits.HandGrad(grad)
	}, logits)
}
