// Package snn implements the spiking substrate of the reproduction:
// leaky-integrate-and-fire (LIF) neuron dynamics with surrogate-gradient
// backpropagation through time (BPTT), spike encoders, and a spiking
// network container whose structural parameters — the firing threshold
// Vth and the time window T — are exactly the knobs the paper explores.
//
// Discretised dynamics (DESIGN.md "Numerical conventions"):
//
//	v[t+1] = α·v[t]·reset(s[t]) + I[t]
//	s[t]   = H(v[t] − Vth)
//
// The Heaviside step H has zero derivative almost everywhere, so training
// uses a surrogate derivative at the threshold (fast sigmoid by default,
// as in SuperSpike/Norse). The attack code differentiates through the
// same surrogate — the white-box setting of the paper's threat model,
// where the adversary knows Vth and T.
//
// There is one forward pass. Network.Step advances every population one
// timestep on whatever tape it is given; Network.Logits loops it over the
// encoder's T planes. Training records it on an ordinary tape, an attack
// on a frozen one with the input a leaf, and evaluation, the serving
// engine and the streaming runner (internal/serve) on a frozen tape of
// constants, where no pullback and no surrogate plane is ever built.
package snn

import (
	"fmt"
	"math"
)

// Surrogate is a smoothed derivative of the Heaviside spike function,
// evaluated at the distance u = v − Vth from the threshold. Grad must be
// safe for concurrent calls: the LIF kernels evaluate it from parallel
// backend workers.
type Surrogate interface {
	// Grad returns dH/dv at membrane distance u = v − Vth.
	Grad(u float64) float64
	// Name identifies the surrogate in reports and serialised models.
	Name() string
}

// FastSigmoid is the SuperSpike surrogate (Zenke & Ganguli 2018), also
// Norse's default: dH/du = 1/(1+β|u|)².
type FastSigmoid struct {
	// Beta controls the sharpness; larger β concentrates the gradient
	// near the threshold. Norse uses 100 by default; smaller values
	// (≈10) give better-conditioned deep BPTT at our scale.
	Beta float64
}

// Grad returns 1/(1+β|u|)².
func (s FastSigmoid) Grad(u float64) float64 {
	d := 1 + s.Beta*math.Abs(u)
	return 1 / (d * d)
}

// Name returns the identifier "fast_sigmoid(β)".
func (s FastSigmoid) Name() string { return fmt.Sprintf("fast_sigmoid(beta=%g)", s.Beta) }

// SigmoidPrime uses the derivative of a scaled logistic function:
// dH/du = β·σ(βu)·(1−σ(βu)).
type SigmoidPrime struct {
	Beta float64
}

// Grad returns β·σ(βu)(1−σ(βu)).
func (s SigmoidPrime) Grad(u float64) float64 {
	e := 1 / (1 + math.Exp(-s.Beta*u))
	return s.Beta * e * (1 - e)
}

// Name returns the identifier "sigmoid_prime(β)".
func (s SigmoidPrime) Name() string { return fmt.Sprintf("sigmoid_prime(beta=%g)", s.Beta) }

// PiecewiseLinear is the triangular surrogate of Bellec et al. / STBP:
// dH/du = max(0, 1 − |u|/w) / w.
type PiecewiseLinear struct {
	// Width is the half-support w of the triangle.
	Width float64
}

// Grad returns the triangular kernel value at u.
func (s PiecewiseLinear) Grad(u float64) float64 {
	a := 1 - math.Abs(u)/s.Width
	if a <= 0 {
		return 0
	}
	return a / s.Width
}

// Name returns the identifier "piecewise_linear(w)".
func (s PiecewiseLinear) Name() string { return fmt.Sprintf("piecewise_linear(width=%g)", s.Width) }

// DefaultSurrogate is the surrogate used when a NeuronConfig leaves the
// field nil.
func DefaultSurrogate() Surrogate { return FastSigmoid{Beta: 10} }
