// Package train provides the Adam optimiser, the minibatch training loop
// and the evaluation forwards used to train both the CNN baseline and the
// spiking networks of the paper.
//
// The training loop is batch-oriented end to end: each minibatch is one
// tape (one batched forward/backward over all of its images on the
// configured compute backend), so BatchSize is both the SGD batch and
// the unit of kernel-level work.
package train

import (
	"math"

	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. Step
// consumes the gradients; callers clear them (Param.ZeroGrad) before the next
// accumulation.
type Optimizer interface {
	// Step applies one update using the current learning rate.
	Step(params []*nn.Param)
	// LR returns the current learning rate.
	LR() float64
}

// Adam implements Kingma & Ba's optimiser; the default for all
// experiments, matching the reference implementation of the paper.
type Adam struct {
	lr, beta1, beta2, eps float64
	t                     int
	m, v                  map[*nn.Param]*tensor.Tensor
}

// NewAdam returns Adam with the canonical defaults β₁=0.9, β₂=0.999,
// ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: map[*nn.Param]*tensor.Tensor{}, v: map[*nn.Param]*tensor.Tensor{},
	}
}

// Step applies the bias-corrected Adam update.
func (o *Adam) Step(params []*nn.Param) {
	o.t++
	c1 := 1 - math.Pow(o.beta1, float64(o.t))
	c2 := 1 - math.Pow(o.beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.Data.Shape()...)
			o.m[p] = m
			o.v[p] = tensor.New(p.Data.Shape()...)
		}
		v := o.v[p]
		md, vd, gd, pd := m.Data(), v.Data(), p.Grad.Data(), p.Data.Data()
		for i := range gd {
			g := gd[i]
			md[i] = o.beta1*md[i] + (1-o.beta1)*g
			vd[i] = o.beta2*vd[i] + (1-o.beta2)*g*g
			mhat := md[i] / c1
			vhat := vd[i] / c2
			pd[i] -= o.lr * mhat / (math.Sqrt(vhat) + o.eps)
		}
	}
}

// LR returns the learning rate.
func (o *Adam) LR() float64 { return o.lr }
