package attack

import (
	"fmt"
	"math"
	"math/rand/v2"

	"snnsec/internal/compute"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// BIM is the basic iterative method (Kurakin et al.): iterated FGSM
// without a random start. It is exactly PGD with RandomStart disabled,
// provided as a named constructor because the two are reported separately
// in the adversarial-ML literature.
func BIM(eps float64, steps int, bounds Bounds) PGD {
	return PGD{Eps: eps, Steps: steps, RandomStart: false, Bounds: bounds}
}

// TargetedPGD drives inputs toward a chosen target class rather than
// merely away from the true one — the bank-check scenario of the paper's
// introduction, where the attacker wants a *specific* wrong digit.
type TargetedPGD struct {
	Eps    float64
	Alpha  float64
	Steps  int
	Target int
	Rand   *rand.Rand
	Bounds Bounds
	// Backend selects the compute backend for the per-step gradient
	// computations; nil uses the default.
	Backend compute.Backend
}

// Name returns "targeted_pgd(ε,target)".
func (a TargetedPGD) Name() string {
	return fmt.Sprintf("targeted_pgd(eps=%g,target=%d)", a.Eps, a.Target)
}

// Perturb performs gradient *descent* on the cross-entropy toward the
// target label within the ε-ball.
func (a TargetedPGD) Perturb(model nn.Classifier, x *tensor.Tensor, y []int) *tensor.Tensor {
	steps := a.Steps
	if steps <= 0 {
		steps = 10
	}
	alpha := a.Alpha
	if alpha <= 0 {
		alpha = 2.5 * a.Eps / float64(steps)
	}
	targets := make([]int, x.Dim(0))
	for i := range targets {
		targets[i] = a.Target
	}
	adv := x.Clone()
	if a.Rand != nil {
		tensor.AddIntoOn(a.Backend, adv, tensor.RandU(a.Rand, -a.Eps, a.Eps, x.Shape()...))
		projectLinf(adv, x, a.Eps, a.Bounds)
	}
	for i := 0; i < steps; i++ {
		g := InputGradientOn(a.Backend, model, adv, targets)
		// Descend: reduce the loss w.r.t. the target class.
		signStep(adv, g, -alpha)
		projectLinf(adv, x, a.Eps, a.Bounds)
	}
	return adv
}

// Success counts how many adversarial examples are classified AS the
// target (targeted success is stricter than untargeted).
func (a TargetedPGD) Success(model nn.Classifier, adv *tensor.Tensor) int {
	n := 0
	for _, p := range train.PredictOn(a.Backend, model, adv) {
		if p == a.Target {
			n++
		}
	}
	return n
}

// L2PGD is projected gradient descent under an L2 ball: steps follow the
// normalised gradient and the perturbation is projected onto the sphere
// of radius Eps. Complements the paper's L∞ threat model.
type L2PGD struct {
	Eps    float64
	Alpha  float64
	Steps  int
	Rand   *rand.Rand
	Bounds Bounds
	// Backend selects the compute backend for the per-step gradient
	// computations; nil uses the default.
	Backend compute.Backend
}

// Name returns "l2pgd(ε,steps)".
func (a L2PGD) Name() string { return fmt.Sprintf("l2pgd(eps=%g,steps=%d)", a.Eps, a.steps()) }

func (a L2PGD) steps() int {
	if a.Steps <= 0 {
		return 10
	}
	return a.Steps
}

// Perturb runs the iterated L2 attack.
func (a L2PGD) Perturb(model nn.Classifier, x *tensor.Tensor, y []int) *tensor.Tensor {
	steps := a.steps()
	alpha := a.Alpha
	if alpha <= 0 {
		alpha = 2.5 * a.Eps / float64(steps)
	}
	adv := x.Clone()
	if a.Rand != nil {
		noise := tensor.RandN(a.Rand, 0, 1, x.Shape()...)
		n := tensor.Norm2(noise)
		if n > 0 {
			tensor.Axpy(a.Eps*a.Rand.Float64()/n, noise, adv)
		}
		a.project(adv, x)
	}
	for i := 0; i < steps; i++ {
		g := InputGradientOn(a.Backend, model, adv, y)
		n := tensor.Norm2(g)
		if n == 0 {
			break // fully masked gradient: no direction to follow
		}
		tensor.Axpy(alpha/n, g, adv)
		a.project(adv, x)
	}
	return adv
}

// project maps adv onto the intersection of the L2 ball around x and the
// pixel box. (Box clipping after sphere projection can re-enter the ball
// only, never leave it, since clipping moves points toward x's box which
// contains x.)
func (a L2PGD) project(adv, x *tensor.Tensor) {
	delta := tensor.Sub(adv, x)
	n := tensor.Norm2(delta)
	if n > a.Eps && n > 0 {
		tensor.ScaleInto(delta, a.Eps/n)
		adv.CopyFrom(tensor.Add(x, delta))
	}
	tensor.ClampInto(adv, a.Bounds.Lo, a.Bounds.Hi)
}

// projectLinf is the shared L∞-ball-plus-box projection.
func projectLinf(adv, x *tensor.Tensor, eps float64, b Bounds) {
	ad, xd := adv.Data(), x.Data()
	for i := range ad {
		lo := math.Max(xd[i]-eps, b.Lo)
		hi := math.Min(xd[i]+eps, b.Hi)
		if ad[i] < lo {
			ad[i] = lo
		} else if ad[i] > hi {
			ad[i] = hi
		}
	}
}
