// Package nn provides non-spiking neural network layers built on the
// autodiff engine: Linear, Conv2D, average pooling, ReLU, Flatten and a
// Sequential container. These layers serve two roles in the reproduction:
// they form the LeNet-5 CNN baseline the paper compares against, and they
// provide the synaptic (weight) transformations inside the spiking layers
// of internal/snn.
//
// Layers are backend-agnostic: every kernel a layer records runs on the
// compute backend its tape is bound to (autodiff.NewTapeOn), so callers
// select serial or parallel execution per forward/backward pass without
// any layer-level configuration.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"snnsec/internal/autodiff"
	"snnsec/internal/tensor"
)

// Param is a trainable tensor with its persistent gradient buffer. The
// gradient accumulates across forward/backward passes until an optimiser
// consumes and clears it.
type Param struct {
	Name string
	Data *tensor.Tensor
	Grad *tensor.Tensor
}

// NewParam allocates a parameter with a zeroed gradient buffer.
func NewParam(name string, data *tensor.Tensor) *Param {
	return &Param{Name: name, Data: data, Grad: tensor.New(data.Shape()...)}
}

// Leaf registers the parameter on tp and returns its graph node: a leaf
// accumulating into Grad, or — on a frozen tape
// (autodiff.NewFrozenTapeOn) — a constant that leaves Grad untouched.
func (p *Param) Leaf(tp *autodiff.Tape) *autodiff.Value {
	return tp.Param(p.Data, p.Grad)
}

// ZeroGrad clears the gradient buffer.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module: it maps a graph node to a graph node
// on the given tape and exposes its trainable parameters.
type Layer interface {
	Forward(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value
	Params() []*Param
}

// ---------------------------------------------------------------------------
// Initialisers

// HeNormal fills with N(0, sqrt(2/fanIn)) — the standard initialisation for
// ReLU-family networks.
func HeNormal(r *rand.Rand, fanIn int, shape ...int) *tensor.Tensor {
	return tensor.RandN(r, 0, math.Sqrt(2/float64(fanIn)), shape...)
}

// XavierUniform fills with U(−a, a), a = sqrt(6/(fanIn+fanOut)).
func XavierUniform(r *rand.Rand, fanIn, fanOut int, shape ...int) *tensor.Tensor {
	a := math.Sqrt(6 / float64(fanIn+fanOut))
	return tensor.RandU(r, -a, a, shape...)
}

// ---------------------------------------------------------------------------
// Linear

// Linear is a fully connected layer y = x·W + b for x of shape [B, In].
type Linear struct {
	In, Out int
	W, B    *Param
}

// NewLinear creates a fully connected layer with Xavier-uniform weights
// and zero bias.
func NewLinear(r *rand.Rand, in, out int) *Linear {
	return &Linear{
		In:  in,
		Out: out,
		W:   NewParam(fmt.Sprintf("linear_%dx%d.W", in, out), XavierUniform(r, in, out, in, out)),
		B:   NewParam(fmt.Sprintf("linear_%dx%d.B", in, out), tensor.New(out)),
	}
}

// Forward applies the affine map; x must be [B, In].
func (l *Linear) Forward(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value {
	if s := x.Shape(); len(s) != 2 || s[1] != l.In {
		panic(fmt.Sprintf("nn: Linear(%d→%d) got input %v", l.In, l.Out, s))
	}
	return tp.AddRowVector(tp.MatMul(x, l.W.Leaf(tp)), l.B.Leaf(tp))
}

// Params returns the layer's weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ---------------------------------------------------------------------------
// Conv2D

// Conv2D is a 2-D convolution layer over [N,C,H,W] inputs. Each forward
// or backward pass convolves the whole batch in one kernel call (the
// batched pipeline of internal/tensor), so batch size — not image count
// — is the unit of work the backend parallelises.
type Conv2D struct {
	InChannels, OutChannels, Kernel int
	Conv                            tensor.ConvParams
	W, B                            *Param
}

// NewConv2D creates a convolution layer with He-normal weights and zero
// bias.
func NewConv2D(r *rand.Rand, inCh, outCh, kernel, stride, padding int) *Conv2D {
	fanIn := inCh * kernel * kernel
	return &Conv2D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Conv:        tensor.ConvParams{Stride: stride, Padding: padding},
		W:           NewParam(fmt.Sprintf("conv_%dto%dk%d.W", inCh, outCh, kernel), HeNormal(r, fanIn, outCh, inCh, kernel, kernel)),
		B:           NewParam(fmt.Sprintf("conv_%dto%dk%d.B", inCh, outCh, kernel), tensor.New(outCh)),
	}
}

// Forward applies the convolution; x must be [N, InChannels, H, W].
func (c *Conv2D) Forward(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value {
	if s := x.Shape(); len(s) != 4 || s[1] != c.InChannels {
		panic(fmt.Sprintf("nn: Conv2D(%d→%d) got input %v", c.InChannels, c.OutChannels, s))
	}
	return tp.Conv2D(x, c.W.Leaf(tp), c.B.Leaf(tp), c.Conv)
}

// Params returns the layer's weight and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// ---------------------------------------------------------------------------
// Stateless layers

// ReLU applies max(x, 0).
type ReLU struct{}

// Forward applies the rectifier.
func (ReLU) Forward(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value { return tp.ReLU(x) }

// Params returns nil; ReLU is parameter-free.
func (ReLU) Params() []*Param { return nil }

// AvgPool performs k×k average pooling.
type AvgPool struct{ K int }

// Forward pools the input.
func (p AvgPool) Forward(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value {
	return tp.AvgPool2D(x, p.K)
}

// Params returns nil; pooling is parameter-free.
func (p AvgPool) Params() []*Param { return nil }

// Flatten reshapes [N, ...] to [N, prod(...)].
type Flatten struct{}

// Forward flattens all but the batch dimension.
func (Flatten) Forward(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value {
	return tp.Reshape(x, x.Shape()[0], -1)
}

// Params returns nil; Flatten is parameter-free.
func (Flatten) Params() []*Param { return nil }

// ---------------------------------------------------------------------------
// Sequential

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a container from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward threads x through every layer in order.
func (s *Sequential) Forward(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value {
	for _, l := range s.Layers {
		x = l.Forward(tp, x)
	}
	return x
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
