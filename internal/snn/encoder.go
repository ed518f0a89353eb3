package snn

import (
	"fmt"
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
	// Name identifies the encoder in reports.
	Name() string
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

// Name returns "constant_current(gain)".
func (e ConstantCurrentEncoder) Name() string {
	return fmt.Sprintf("constant_current(gain=%g)", e.Gain)
}

// PoissonEncoder emits rate-coded Bernoulli spike trains: at each step a
// pixel spikes with probability clamp(Gain·(Scale·x + Offset), 0, 1).
// Scale and Offset (default 1 and 0) de-normalise inputs that live in
// MNIST-normalised units back into [0,1] rate space. The backward pass
// uses the straight-through estimator dE[s]/dx = Gain·Scale inside the
// unsaturated region, so PGD still reaches the pixels. The generator is
// owned by the encoder and must be reseeded (Reseed) to reproduce a
// specific spike train.
type PoissonEncoder struct {
	Gain   float64
	Scale  float64
	Offset float64
	rng    *rand.Rand
}

// NewPoissonEncoder builds a rate encoder with a deterministic generator
// and identity de-normalisation.
func NewPoissonEncoder(gain float64, seed1, seed2 uint64) *PoissonEncoder {
	return &PoissonEncoder{Gain: gain, Scale: 1, rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// NewNormalizedPoissonEncoder builds a rate encoder for inputs in
// MNIST-normalised units: the rate is Gain·(std·x + mean).
func NewNormalizedPoissonEncoder(gain, mean, std float64, seed1, seed2 uint64) *PoissonEncoder {
	return &PoissonEncoder{Gain: gain, Scale: std, Offset: mean, rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Reseed resets the spike-train generator.
func (e *PoissonEncoder) Reseed(seed1, seed2 uint64) {
	e.rng = rand.New(rand.NewPCG(seed1, seed2))
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
func (e *PoissonEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	xd := x.Data.Data()
	pl := newSpikePlane(tp, x.Data.Shape())
	e.sample(&pl, xd)
	scale := e.scale()
	// Straight-through: d rate/dx = Gain·Scale inside the linear region,
	// zero where the rate saturates.
	return pl.straightThrough(tp, x, e.Gain, scale, func(i int) bool {
		p := e.Gain * (scale*xd[i] + e.Offset)
		return p > 0 && p < 1
	})
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

// straightThrough records the finished plane as an encoding of x whose
// pullback hands over 0 + g·gain·scale where active(i) and 0 elsewhere,
// and attaches the packed plane: rate- and latency-coded trains are
// binary, and their bits travel with them like every LIF output's.
func (pl *spikePlane) straightThrough(tp *autodiff.Tape, x *autodiff.Value, gain, scale float64, active func(i int) bool) *autodiff.Value {
	var v *autodiff.Value
	if tp.Tracks(x) {
		v = tp.NewOp(pl.out, func(g *tensor.Tensor) {
			gd := g.Data()
			dx := tp.Product(g.Shape()...)
			for i, d := 0, dx.Data(); i < len(d); i++ {
				if active(i) {
					d[i] = 0 + gd[i]*gain*scale
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

// Name returns "poisson(gain)".
func (e *PoissonEncoder) Name() string { return fmt.Sprintf("poisson(gain=%g)", e.Gain) }

// LatencyEncoder emits a single spike per pixel whose timing encodes
// intensity: brighter pixels spike earlier. A pixel with normalised
// intensity p ∈ (0,1] spikes at step floor((1−p)·(T−1)); non-positive
// intensities never spike. Backward uses a straight-through estimator on
// the spiking step. Included for the encoding ablation (Bagheri et al.
// study encoding sensitivity); the paper itself uses rate coding.
type LatencyEncoder struct {
	Gain float64
	// T must match the network's time window so spike times span it.
	T int
}

// plane writes the latency-coded spikes of step t over every element of
// pl.
func (e LatencyEncoder) plane(pl *spikePlane, xd []float64, t int) {
	if e.T <= 0 {
		panic("snn: LatencyEncoder requires positive T")
	}
	for i, xv := range xd {
		p := e.Gain * xv
		if p > 1 {
			p = 1
		}
		pl.set(i, p > 0 && int((1-p)*float64(e.T-1)) == t)
	}
}

// Encode emits the latency-coded spikes for step t.
func (e LatencyEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	pl := newSpikePlane(tp, x.Data.Shape())
	e.plane(&pl, x.Data.Data(), t)
	// Straight-through on the pixels that spike at this step.
	spikes := pl.spikes
	return pl.straightThrough(tp, x, e.Gain, 1, func(i int) bool { return spikes[i] != 0 })
}

// Name returns "latency(gain,T)".
func (e LatencyEncoder) Name() string { return fmt.Sprintf("latency(gain=%g,T=%d)", e.Gain, e.T) }
