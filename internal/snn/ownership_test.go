package snn

import (
	"math"
	"testing"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// sizesBackend records the length of every buffer asked of the arena.
type sizesBackend struct {
	compute.Serial
	asked []int
}

func (s *sizesBackend) Get(n int) []float64 {
	s.asked = append(s.asked, n)
	return s.Serial.Get(n)
}

// A neuron step none of whose parents takes a gradient records no
// pullback and keeps no surrogate plane: its slab holds the spikes and
// the membrane, 2n; with a differentiable parent it holds 3n.
func TestStepSlabHoldsSurrogateOnlyForAPullback(t *testing.T) {
	const n = 6
	cfg := defaultNeuronConfig()
	cur := tensor.Full(2, 2, 3)
	for _, c := range []struct {
		differentiable bool
		slab           int
	}{{false, 2 * n}, {true, 3 * n}} {
		be := &sizesBackend{}
		tp := autodiff.NewTapeOn(be)
		in := tp.Const(cur)
		if c.differentiable {
			in = tp.Var(cur)
		}
		spikes, mem := LIFStep(tp, cfg, in, tp.Const(tensor.New(2, 3)))
		if len(be.asked) != 1 || be.asked[0] != c.slab {
			t.Errorf("differentiable=%v: step asked the arena for %v, want one slab of %d", c.differentiable, be.asked, c.slab)
		}
		if spikes.RequiresGrad() != c.differentiable || mem.RequiresGrad() != c.differentiable {
			t.Errorf("differentiable=%v: outputs require gradients (%v, %v)", c.differentiable, spikes.RequiresGrad(), mem.RequiresGrad())
		}
		tp.Release()
	}
}

// probe records an identity op over x whose pullback stores the bits of
// the gradient handed to it.
func probe(tp *autodiff.Tape, x *autodiff.Value, bits *[]uint64) *autodiff.Value {
	out := tp.Output(x.Shape()...)
	out.CopyFrom(x.Data)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		for _, v := range g.Data() {
			*bits = append(*bits, math.Float64bits(v))
		}
		x.AccumGrad(g)
	}, x)
}

// The step and encoder pullbacks hand their products over, so a raw −0
// product must arrive as +0, the bits of 0 + −0 (see autodiff's
// TestHandOverStoresZeroPlusG). Every case is built so each raw product
// is −0.
func TestStepAndEncoderProductsStoreZeroPlusG(t *testing.T) {
	const tiny = -5e-324 // times ½ rounds to −0
	cfg := defaultNeuronConfig()
	cases := []struct {
		name string
		x    float64
		op   func(tp *autodiff.Tape, p *autodiff.Value) (out *autodiff.Value, seed float64)
	}{
		// Every neuron fires, so the membrane path's gate 1−s is 0 and a
		// negative membrane gradient gives −0.
		{"LIF membrane term", 2, func(tp *autodiff.Tape, p *autodiff.Value) (*autodiff.Value, float64) {
			_, mem := LIFStep(tp, cfg, p, tp.Const(tensor.New(4)))
			return mem, -1
		}},
		{"ALIF membrane term", 2, func(tp *autodiff.Tape, p *autodiff.Value) (*autodiff.Value, float64) {
			acfg := AdaptiveConfig{NeuronConfig: cfg, AdaptStep: 0.1, AdaptDecay: 0.5}
			_, st := ALIFStep(tp, acfg, p, zeroALIFState(tp, 4))
			return st.V, -1
		}},
		{"Poisson straight-through", 0.5, func(tp *autodiff.Tape, p *autodiff.Value) (*autodiff.Value, float64) {
			return NewNormalizedPoissonEncoder(0.5, 0, 1, 1, 2).Encode(tp, p, 0), tiny
		}},
		{"latency straight-through", 1, func(tp *autodiff.Tape, p *autodiff.Value) (*autodiff.Value, float64) {
			return LatencyEncoder{Gain: 0.5, T: 3}.Encode(tp, p, 1), tiny
		}},
	}
	for _, c := range cases {
		tp := autodiff.NewTapeOn(nil)
		x := tp.Var(tensor.Full(c.x, 4))
		var bits []uint64
		out, seed := c.op(tp, probe(tp, x, &bits))
		tp.BackwardWithSeed(out, tensor.Full(seed, 4))
		if len(bits) != 4 {
			t.Fatalf("%s: probe saw %d gradient elements, want 4", c.name, len(bits))
		}
		for i, b := range bits {
			if b != 0 {
				t.Errorf("%s: element %d arrived as bits %#x, want +0", c.name, i, b)
			}
		}
	}
}
