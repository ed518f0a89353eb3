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

// sample draws one Bernoulli plane from the rate
// clamp(Gain·(Scale·x+Offset), 0, 1) — one generator draw per element, in
// element order, which is what makes a reseeded encoder reproduce its
// spike trains on the taped and the tape-free path alike. A non-nil
// inRegion (len(xd)) also receives the unsaturated-rate mask the
// straight-through pullback reads.
func (e *PoissonEncoder) sample(xd []float64, inRegion []bool) []float64 {
	scale := e.scale()
	spikes := make([]float64, len(xd))
	for i, xv := range xd {
		p := e.Gain * (scale*xv + e.Offset)
		if inRegion != nil {
			inRegion[i] = p > 0 && p < 1
		}
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		if e.rng.Float64() < p {
			spikes[i] = 1
		}
	}
	return spikes
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
	n := x.Data.Len()
	shape := x.Data.Shape()
	var inRegion []bool
	if x.RequiresGrad() {
		inRegion = make([]bool, n)
	}
	out := tensor.FromSlice(e.sample(x.Data.Data(), inRegion), shape...)
	scale := e.scale()
	v := tp.NewOp(out, func(g *tensor.Tensor) {
		// Straight-through: d rate/dx = Gain·Scale inside the linear
		// region, zero where the rate saturates.
		gd := g.Data()
		dx := make([]float64, n)
		for i := range dx {
			if inRegion[i] {
				dx[i] = gd[i] * e.Gain * scale
			}
		}
		x.AccumGrad(tensor.FromSlice(dx, shape...))
	}, x)
	// Rate-coded trains are binary: packing them here lets the first
	// synapse run the spike kernels, so the whole forward pass stays in
	// packed form from the pixels to the readout.
	if compute.PackSpikePlanes() {
		v.AttachSpikes(tensor.PackSpikesOn(tp.Backend(), out))
	}
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

// plane returns the latency-coded spikes of step t.
func (e LatencyEncoder) plane(xd []float64, t int) []float64 {
	if e.T <= 0 {
		panic("snn: LatencyEncoder requires positive T")
	}
	spikes := make([]float64, len(xd))
	for i, xv := range xd {
		p := e.Gain * xv
		if p <= 0 {
			continue
		}
		if p > 1 {
			p = 1
		}
		if int((1-p)*float64(e.T-1)) == t {
			spikes[i] = 1
		}
	}
	return spikes
}

// Encode emits the latency-coded spikes for step t.
func (e LatencyEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	shape := x.Data.Shape()
	spikes := e.plane(x.Data.Data(), t)
	out := tensor.FromSlice(spikes, shape...)
	v := tp.NewOp(out, func(g *tensor.Tensor) {
		// Straight-through on the pixels that spike at this step.
		gd := g.Data()
		dx := make([]float64, len(spikes))
		for i := range dx {
			if spikes[i] != 0 {
				dx[i] = gd[i] * e.Gain
			}
		}
		x.AccumGrad(tensor.FromSlice(dx, shape...))
	}, x)
	// A latency-coded step is binary (at most one spike per pixel), so
	// it packs the same way as the rate code.
	if compute.PackSpikePlanes() {
		v.AttachSpikes(tensor.PackSpikesOn(tp.Backend(), out))
	}
	return v
}

// Name returns "latency(gain,T)".
func (e LatencyEncoder) Name() string { return fmt.Sprintf("latency(gain=%g,T=%d)", e.Gain, e.T) }
