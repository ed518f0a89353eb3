package snn

import (
	"math/rand/v2"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// Encoder converts a static input image into the per-timestep input of
// the spiking network. Encode is called once per timestep t ∈ [0, T);
// implementations must be differentiable (exactly or via a
// straight-through estimator) so the white-box attacker can reach the
// pixels.
type Encoder interface {
	// Encode returns the input drive at timestep t for the static input
	// x (shape [N,C,H,W] or [N,D]).
	Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value
}

// ConstantCurrentEncoder injects the (scaled) analog input as synaptic
// current at every timestep — Norse's constant-current LIF encoding. The
// first spiking layer then converts intensity to rate through its own LIF
// dynamics. This encoder is exactly differentiable, making it the default
// for white-box attack studies.
type ConstantCurrentEncoder struct {
	// Gain multiplies the input before injection.
	Gain float64
}

// Encode returns Gain·x regardless of t.
func (e ConstantCurrentEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	if e.Gain == 1 {
		return x
	}
	return tp.Scale(x, e.Gain)
}

// PoissonEncoder emits rate-coded Bernoulli spike trains: at each step a
// pixel spikes with probability clamp(Gain·(Scale·x + Offset), 0, 1).
// Scale and Offset (default 1 and 0) de-normalise inputs that live in
// MNIST-normalised units back into [0,1] rate space. The backward pass
// uses the straight-through estimator dE[s]/dx = Gain·Scale inside the
// unsaturated region, so PGD still reaches the pixels. The generator is
// owned by the encoder: a fresh encoder with the same seeds reproduces a
// specific spike train.
type PoissonEncoder struct {
	Gain   float64
	Scale  float64
	Offset float64
	rng    *rand.Rand
}

// NewNormalizedPoissonEncoder builds a rate encoder for inputs in
// MNIST-normalised units: the rate is Gain·(std·x + mean).
func NewNormalizedPoissonEncoder(gain, mean, std float64, seed1, seed2 uint64) *PoissonEncoder {
	return &PoissonEncoder{Gain: gain, Scale: std, Offset: mean, rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// sample writes one Bernoulli plane drawn from the rate
// clamp(Gain·(Scale·x+Offset), 0, 1) over every element of pl — one
// generator draw per element, in element order, which is what makes a
// reseeded encoder reproduce its spike trains.
func (e *PoissonEncoder) sample(pl *spikePlane, xd []float64) {
	scale := e.scale()
	for i, xv := range xd {
		p := e.Gain * (scale*xv + e.Offset)
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		pl.set(i, e.rng.Float64() < p)
	}
}

// scale is Scale with its zero value read as the identity.
func (e *PoissonEncoder) scale() float64 {
	if e.Scale == 0 {
		return 1
	}
	return e.Scale
}

// Encode samples a Bernoulli spike tensor from the rate
// clamp(Gain·(Scale·x+Offset), 0, 1). The generator advances by one
// plane per call whether or not x requires a gradient, so the number and
// order of Encode calls — not what is differentiated — fixes the trains.
//
// The backward pass is straight-through: d rate/dx = Gain·Scale inside
// the linear region, zero where the rate saturates. The pullback hands
// over 0 + g·Gain·Scale there. The packed plane is attached like every
// LIF output's.
func (e *PoissonEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	xd := x.Data.Data()
	pl := newSpikePlane(tp, x.Data.Shape())
	e.sample(&pl, xd)
	scale := e.scale()
	var v *autodiff.Value
	if tp.Tracks(x) {
		v = tp.NewOp(pl.out, func(g *tensor.Tensor) {
			gd := g.Data()
			dx := tp.Product(g.Shape()...)
			for i, d := 0, dx.Data(); i < len(d); i++ {
				if p := e.Gain * (scale*xd[i] + e.Offset); p > 0 && p < 1 {
					d[i] = 0 + gd[i]*e.Gain*scale
				} else {
					d[i] = 0
				}
			}
			x.HandGrad(dx)
		}, x)
	} else {
		v = tp.Const(pl.out)
	}
	v.AttachSpikes(tensor.NewSpikeTensorFromBits(pl.bits, pl.counts, pl.out.Shape()...))
	return v
}

// spikePlane is a binary plane an encoder is writing: the tape-lived
// float view every element of which it must set, and the packed words
// of the same plane, filled by the same store, so no second pass
// re-reads what the encoder just wrote.
type spikePlane struct {
	out    *tensor.Tensor
	spikes []float64
	bits   []uint64
	counts []int // set bits per row
	rowLen int
	words  int // packed words per row (rows start on a word boundary)
}

// newSpikePlane draws the plane's float view and its cleared words from
// the tape's arenas; both live until Release.
func newSpikePlane(tp *autodiff.Tape, shape []int) spikePlane {
	out := tp.Output(shape...)
	rowLen := out.Len() / shape[0]
	pl := spikePlane{out: out, spikes: out.Data(), rowLen: rowLen, words: (rowLen + 63) / 64, counts: make([]int, shape[0])}
	pl.bits = compute.GetUint64(shape[0] * pl.words)
	tp.OwnWords(pl.bits)
	clear(pl.bits)
	return pl
}

// set stores element i of the plane, float and bit at once.
func (pl *spikePlane) set(i int, spike bool) {
	if !spike {
		pl.spikes[i] = 0
		return
	}
	pl.spikes[i] = 1
	r, c := i/pl.rowLen, i%pl.rowLen
	pl.bits[r*pl.words+c>>6] |= 1 << (uint(c) & 63)
	pl.counts[r]++
}
