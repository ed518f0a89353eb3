package autodiff

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"snnsec/internal/tensor"
)

// A packed plane riding on a value changes which kernel pools it and
// nothing else: with the plane attached and without it, every op must
// give bit-identical outputs and gradients. These tests pin that at
// 0/10/50/100% spike density for MatMul, Conv2D and the pooling pair.

func binaryAt(rng *rand.Rand, density float64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data() {
		if rng.Float64() < density {
			x.Data()[i] = 1
		}
	}
	return x
}

type gradResult struct {
	out   *tensor.Tensor
	grads []*tensor.Tensor
}

func assertSameResult(t *testing.T, name string, want, got gradResult) {
	t.Helper()
	if !want.out.AllClose(got.out, 0) {
		t.Errorf("%s: forward differs", name)
	}
	for i := range want.grads {
		if !want.grads[i].AllClose(got.grads[i], 0) {
			t.Errorf("%s: gradient %d differs", name, i)
		}
	}
}

// runModes evaluates f with the packed plane attached to its input and
// without it, and checks the two results are bit-identical.
func runModes(t *testing.T, name string, f func(attach bool) gradResult) {
	t.Helper()
	assertSameResult(t, name+" packed-vs-plain", f(true), f(false))
}

// input records spikes as a Var, with its packed plane when attach is
// set.
func input(tp *Tape, spikes *tensor.Tensor, attach bool) *Value {
	x := tp.Var(spikes.Clone())
	if attach {
		x.AttachSpikes(tensor.PackSpikesOn(nil, x.Data))
	}
	return x
}

var dispatchDensities = []float64{0, 0.1, 0.5, 1}

func TestDispatchedMatMulBitIdentical(t *testing.T) {
	r := tensor.NewRand(51, 53)
	w := tensor.RandN(r, 0, 1, 40, 7)
	seed := tensor.RandN(r, 0, 1, 9, 7)
	for di, density := range dispatchDensities {
		rng := rand.New(rand.NewPCG(uint64(60+di), 1))
		spikes := binaryAt(rng, density, 9, 40)
		runModes(t, fmt.Sprintf("MatMul d=%g", density), func(attach bool) gradResult {
			tp := NewTapeOn(nil)
			a := input(tp, spikes, attach)
			wv := tp.Var(w.Clone())
			out := tp.MatMul(a, wv)
			tp.BackwardWithSeed(out, seed)
			return gradResult{out: out.Data, grads: []*tensor.Tensor{a.Grad, wv.Grad}}
		})
	}
}

func TestDispatchedConv2DBitIdentical(t *testing.T) {
	r := tensor.NewRand(55, 57)
	w := tensor.RandN(r, 0, 0.5, 4, 2, 3, 3)
	bias := tensor.RandN(r, 0, 0.5, 4)
	p := tensor.ConvParams{Stride: 1, Padding: 1}
	for di, density := range dispatchDensities {
		rng := rand.New(rand.NewPCG(uint64(70+di), 1))
		spikes := binaryAt(rng, density, 2, 2, 6, 6)
		runModes(t, fmt.Sprintf("Conv2D d=%g", density), func(attach bool) gradResult {
			tp := NewTapeOn(nil)
			x := input(tp, spikes, attach)
			wv, bv := tp.Var(w.Clone()), tp.Var(bias.Clone())
			out := tp.Conv2D(x, wv, bv, p)
			tp.Backward(sumOf(tp, out))
			return gradResult{out: out.Data, grads: []*tensor.Tensor{x.Grad, wv.Grad, bv.Grad}}
		})
	}
}

func TestDispatchedPoolingBitIdentical(t *testing.T) {
	for di, density := range dispatchDensities {
		rng := rand.New(rand.NewPCG(uint64(80+di), 1))
		spikes := binaryAt(rng, density, 2, 3, 8, 8)
		for _, pool := range []struct {
			name string
			op   func(tp *Tape, x *Value) *Value
		}{
			{"AvgPool2D", func(tp *Tape, x *Value) *Value { return tp.AvgPool2D(x, 2) }},
			{"MaxPool2D", func(tp *Tape, x *Value) *Value { return tp.MaxPool2D(x, 2) }},
		} {
			runModes(t, fmt.Sprintf("%s d=%g", pool.name, density), func(attach bool) gradResult {
				tp := NewTapeOn(nil)
				x := input(tp, spikes, attach)
				out := pool.op(tp, x)
				tp.Backward(sumOf(tp, out))
				return gradResult{out: out.Data, grads: []*tensor.Tensor{x.Grad}}
			})
		}
	}
}

// TestMaxPoolSpikeOutputStaysPacked pins the satellite behaviour that
// motivated the popcount pooling kernels: a packed plane flowing into a
// max pool comes out still packed, so a pool behind it reads bits too.
func TestMaxPoolSpikeOutputStaysPacked(t *testing.T) {
	rng := rand.New(rand.NewPCG(90, 1))
	spikes := binaryAt(rng, 0.3, 2, 3, 8, 8)
	tp := NewTapeOn(nil)
	x := tp.Const(spikes)
	x.AttachSpikes(tensor.PackSpikesOn(nil, spikes))
	out := tp.MaxPool2D(x, 2)
	if out.Spikes() == nil {
		t.Fatal("max pool dropped the packed spike plane")
	}
	if !out.Spikes().DenseInto(nil, tensor.New(out.Shape()...)).AllClose(out.Data, 0) {
		t.Fatal("repacked max pool plane does not match the dense output")
	}
	// Average pooling emits fractions, which cannot stay packed.
	if tp.AvgPool2D(x, 2).Spikes() != nil {
		t.Fatal("avg pool output claims to be binary")
	}
}
