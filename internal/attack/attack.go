// Package attack implements the white-box adversarial attacks of the
// paper's threat model (Section IV): FGSM and its strong iterated variant
// PGD (Madry et al., Eq. 3 of the paper), plus a Gaussian-noise baseline.
// The attacker has full access to the victim classifier — architecture,
// weights and structural parameters — and differentiates through it,
// which for a spiking network means backpropagating through the full
// unrolled time window with the same surrogate gradients used in
// training.
//
// All attacks operate under an L∞ budget ε measured in the dataset's
// current units (normalised MNIST units in the experiment presets, so
// ε = 1.5 matches the paper's strongest setting) and clip the adversarial
// example to the valid pixel range.
//
// Attacks perturb whole [N,1,H,W] batches at a time: every PGD/FGSM
// gradient step is one forward/backward pass over the batch, so the
// per-step cost rides the batched conv pipeline and the backend
// parallelism of the layers below rather than looping over images here.
package attack

import (
	"fmt"
	"math"
	"math/rand/v2"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// Attack crafts adversarial examples against a classifier.
type Attack interface {
	// Perturb returns adversarial versions of the images x [N,1,H,W]
	// with true labels y. The input tensor is not modified.
	Perturb(model nn.Classifier, x *tensor.Tensor, y []int) *tensor.Tensor
	// Name identifies the attack in reports.
	Name() string
}

// Bounds is the valid pixel interval attacks clip to.
type Bounds struct {
	Lo, Hi float64
}

// DatasetBounds derives clipping bounds from a dataset's units.
func DatasetBounds(d *dataset.Dataset) Bounds {
	lo, hi := d.Bounds()
	return Bounds{Lo: lo, Hi: hi}
}

// InputGradient returns dLoss/dx of the mean cross-entropy at (x, y) —
// the core white-box primitive shared by FGSM and PGD — on the default
// backend.
func InputGradient(model nn.Classifier, x *tensor.Tensor, y []int) *tensor.Tensor {
	return InputGradientOn(nil, model, x, y)
}

// InputGradientOn is InputGradient on an explicit compute backend (nil
// selects the default): the forward pass and the BPTT backward pass both
// execute on be. The adversary reads ∇ₓL and nothing else, so the tape is
// frozen: the victim's parameters are constants, every pullback computes
// its input-side product only, and the model's Param.Grad buffers are
// never written — attacking a model does not mutate it, and goroutines
// may attack one model concurrently (given a stateless encoder).
func InputGradientOn(be compute.Backend, model nn.Classifier, x *tensor.Tensor, y []int) *tensor.Tensor {
	grad := tensor.New(x.Shape()...)
	inputGradient(autodiff.NewFrozenTapeOn(be), model, x, y, grad)
	return grad
}

// inputGradient adds dLoss/dx into grad, a buffer of the caller's that
// outlives the tape, recording on the frozen tape tp and releasing it.
func inputGradient(tp *autodiff.Tape, model nn.Classifier, x *tensor.Tensor, y []int, grad *tensor.Tensor) {
	xv := tp.Leaf(x, grad)
	tp.Backward(tp.SoftmaxCrossEntropy(model.Logits(tp, xv), y))
	tp.Release()
}

// FGSM is the single-step fast gradient sign method of Goodfellow et al.
type FGSM struct {
	Eps    float64
	Bounds Bounds
	// Backend selects the compute backend for the gradient computation;
	// nil uses the default.
	Backend compute.Backend
}

// Perturb returns clip(x + ε·sign(∇ₓL)).
func (a FGSM) Perturb(model nn.Classifier, x *tensor.Tensor, y []int) *tensor.Tensor {
	g := InputGradientOn(a.Backend, model, x, y)
	adv := x.Clone()
	signStep(adv, g, a.Eps)
	tensor.ClampInto(adv, a.Bounds.Lo, a.Bounds.Hi)
	return adv
}

// signStep moves adv by alpha along sign(g) in place:
// adv[i] += alpha·sign(g[i]), with sign(NaN) = 0.
func signStep(adv, g *tensor.Tensor, alpha float64) {
	ad := adv.Data()
	for i, v := range g.Data() {
		var s float64
		if v > 0 {
			s = 1
		} else if v < 0 {
			s = -1
		}
		ad[i] += alpha * s
	}
}

// Name returns "fgsm(ε)".
func (a FGSM) Name() string { return fmt.Sprintf("fgsm(eps=%g)", a.Eps) }

// CheckEps returns an error unless eps can be a noise budget: finite and
// non-negative. Zero stays legal — it is the clean point of a curve. The
// test is written as what must hold, so a NaN (which fails every ordered
// comparison) is refused with the negatives.
func CheckEps(eps float64) error {
	if !(eps >= 0) || math.IsInf(eps, 1) {
		return fmt.Errorf("noise budget eps must be finite and non-negative, got %g", eps)
	}
	return nil
}

// PGD is projected gradient descent under an L∞ ball (Madry et al.) —
// Eq. (3) of the paper: x_{t+1} = Π_{Sx}(x_t + α·sign(∇ₓL(x_t, y))).
type PGD struct {
	// Eps is the total L∞ noise budget.
	Eps float64
	// Alpha is the per-iteration step; when 0 it defaults to
	// 2.5·Eps/Steps, the standard Madry heuristic.
	Alpha float64
	// Steps is the iteration count; when 0 it defaults to 10.
	Steps int
	// RandomStart initialises inside the ε-ball (the canonical PGD); the
	// generator must be non-nil when set.
	RandomStart bool
	Rand        *rand.Rand
	Bounds      Bounds
	// Backend selects the compute backend for the per-step gradient
	// computations; nil uses the default.
	Backend compute.Backend
}

// Name returns "pgd(ε,steps)".
func (a PGD) Name() string { return fmt.Sprintf("pgd(eps=%g,steps=%d)", a.Eps, a.effectiveSteps()) }

func (a PGD) effectiveSteps() int {
	if a.Steps <= 0 {
		return 10
	}
	return a.Steps
}

func (a PGD) effectiveAlpha() float64 {
	if a.Alpha > 0 {
		return a.Alpha
	}
	return 2.5 * a.Eps / float64(a.effectiveSteps())
}

// Perturb runs the full iterated attack.
func (a PGD) Perturb(model nn.Classifier, x *tensor.Tensor, y []int) *tensor.Tensor {
	steps := a.effectiveSteps()
	alpha := a.effectiveAlpha()
	adv := x.Clone()
	if a.RandomStart {
		if a.Rand == nil {
			panic("attack: PGD RandomStart requires a generator")
		}
		// adv += U[−ε, ε): tensor.RandU's draws, in its order, added in
		// place.
		ad, lo, hi := adv.Data(), -a.Eps, a.Eps
		for i := range ad {
			ad[i] += lo + (hi-lo)*a.Rand.Float64()
		}
		a.project(adv, x)
	}
	// Every step records on one tape and accumulates into one gradient
	// buffer from the tape's arena, cleared first, so the tape's slabs
	// fill once per attack.
	tp := autodiff.NewFrozenTapeOn(a.Backend)
	be := tp.Backend()
	g := tensor.FromSlice(be.Get(x.Len()), x.Shape()...)
	defer be.Put(g.Data())
	for i := 0; i < steps; i++ {
		g.Zero()
		inputGradient(tp, model, adv, y, g)
		signStep(adv, g, alpha)
		a.project(adv, x)
	}
	return adv
}

// project clips adv into the ε-ball around x intersected with the pixel
// bounds — the projection operator P_{Sx} of Eq. (3).
func (a PGD) project(adv, x *tensor.Tensor) {
	ad, xd := adv.Data(), x.Data()
	for i := range ad {
		lo := xd[i] - a.Eps
		hi := xd[i] + a.Eps
		if lo < a.Bounds.Lo {
			lo = a.Bounds.Lo
		}
		if hi > a.Bounds.Hi {
			hi = a.Bounds.Hi
		}
		if ad[i] < lo {
			ad[i] = lo
		} else if ad[i] > hi {
			ad[i] = hi
		}
	}
}

// GaussianNoise is the non-adversarial control: i.i.d. noise of the same
// L∞-comparable magnitude, to separate "robust to attack" from "robust to
// noise".
type GaussianNoise struct {
	Std    float64
	Rand   *rand.Rand
	Bounds Bounds
}

// Perturb adds clipped Gaussian noise.
func (a GaussianNoise) Perturb(_ nn.Classifier, x *tensor.Tensor, _ []int) *tensor.Tensor {
	if a.Rand == nil {
		panic("attack: GaussianNoise requires a generator")
	}
	adv := x.Clone()
	tensor.AddInto(adv, tensor.RandN(a.Rand, 0, a.Std, x.Shape()...))
	tensor.ClampInto(adv, a.Bounds.Lo, a.Bounds.Hi)
	return adv
}

// Name returns "gaussian(σ)".
func (a GaussianNoise) Name() string { return fmt.Sprintf("gaussian(std=%g)", a.Std) }

// Identity is the ε=0 attack: it returns the input unchanged. It anchors
// robustness curves at the clean accuracy.
type Identity struct{}

// Perturb returns a copy of x.
func (Identity) Perturb(_ nn.Classifier, x *tensor.Tensor, _ []int) *tensor.Tensor { return x.Clone() }

// Name returns "identity".
func (Identity) Name() string { return "identity" }
