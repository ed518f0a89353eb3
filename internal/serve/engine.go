// Package serve is the inference side of the repository: an engine that
// runs a trained classifier's own forward pass on a frozen tape it reuses
// from request to request, and an HTTP/line-JSON server on top of it with
// request coalescing, an LRU model cache, per-request deadlines and
// bounded-queue backpressure.
//
// There is one forward pass. The engine calls nn.Classifier.Logits — for
// a spiking network, snn.Network.Logits, the same T-step loop training
// and the attacks differentiate through — on a frozen tape with a
// constant input, where every operation returns a constant before it
// builds a pullback, the node slab is recycled and every activation is
// arena memory returned on Release. Logits are therefore the taped
// forward's by construction, and the engine holds no kernel choice,
// neuron arithmetic or layer list of its own.
package serve

import (
	"fmt"
	"sync"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// Engine runs a classifier forward, gradient-free. One Engine serves one
// model; calls are serialised (an SNN's rate encoder is a stateful
// generator, and the tape is per-engine), so concurrency comes from
// batching requests together, not from parallel forwards.
type Engine struct {
	mu     sync.Mutex
	be     compute.Backend
	model  nn.Classifier
	tape   *autodiff.Tape // frozen; recorded on and released under mu
	sample []int          // per-sample input shape, e.g. [1,H,W]
}

// NewEngine returns an engine for model bound to be (nil selects
// compute.Default()). sample is the per-sample input shape (without the
// batch dimension). Any nn.Classifier serves; a spiking network must be
// valid.
func NewEngine(model nn.Classifier, be compute.Backend, sample []int) (*Engine, error) {
	if be == nil {
		be = compute.Default()
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("serve: empty sample shape")
	}
	for _, d := range sample {
		if d <= 0 {
			return nil, fmt.Errorf("serve: bad sample shape %v", sample)
		}
	}
	if m, ok := model.(*snn.Network); ok {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	return &Engine{
		be:     be,
		model:  model,
		tape:   autodiff.NewFrozenTapeOn(be),
		sample: append([]int(nil), sample...),
	}, nil
}

// SampleShape returns the per-sample input shape the engine expects.
func (e *Engine) SampleShape() []int { return append([]int(nil), e.sample...) }

// Logits runs the forward pass on x [N, sample...] and returns the
// [N, classes] scores — the model's own Logits on the engine's tape,
// copied out before the tape's arena memory is released.
func (e *Engine) Logits(x *tensor.Tensor) (out *tensor.Tensor, err error) {
	if err := e.checkInput(x); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("serve: forward failed: %v", r)
		}
		e.tape.Release()
	}()
	return e.model.Logits(e.tape, e.tape.Const(x)).Data.Clone(), nil
}

func (e *Engine) checkInput(x *tensor.Tensor) error {
	if x == nil || x.Dims() != len(e.sample)+1 || x.Dim(0) <= 0 {
		return fmt.Errorf("serve: input must be [N,%v]-shaped", e.sample)
	}
	for i, d := range e.sample {
		if x.Dim(i+1) != d {
			return fmt.Errorf("serve: input shape %v does not match sample shape %v", x.Shape(), e.sample)
		}
	}
	return nil
}
