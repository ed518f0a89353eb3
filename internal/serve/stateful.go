package serve

import (
	"fmt"

	"snnsec/internal/autodiff"
	"snnsec/internal/faultinject"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// FaultStreamWindow is the fault point fired inside every streaming
// window, after the first timestep has run — so an injected panic or
// error lands mid-window and exercises the failure path, not just the
// error return.
const FaultStreamWindow = "stream.window"

// StatefulRunner is the streaming forward: it advances an SNN engine's
// network one window of pre-binned spike planes at a time with
// snn.Network.Step — the step Logits loops — carrying membrane and
// adaptation state across window boundaries instead of resetting per
// call. Under contiguous tiling (hop == window) a sequence of Step calls
// is therefore a faithful continuous simulation: each window's logits
// are bit-identical to that window's slice of one forward over the k·T
// concatenated planes (pinned by the equivalence suite in
// stateful_test.go).
//
// Windows are transactional by construction. The carried state lives in
// the runner's own tensors, which a window only reads: it records them as
// constants on the runner's tape, steps on tape-lived values, and the new
// state is copied back only once every plane has succeeded. A window that
// panics or meets a fault releases its tape and returns the error — it
// fails alone, the stream continues from the pre-window state.
//
// A runner is not safe for concurrent use: one runner per stream
// session. Independent runners over the same Engine may run
// concurrently — each records on a tape of its own.
type StatefulRunner struct {
	e    *Engine
	net  *snn.Network
	tape *autodiff.Tape // frozen
	// The carried state, nil until the first successful window: per hidden
	// population its membrane and (ALIF) threshold excess, and the
	// readout's membrane.
	mem, excess []*tensor.Tensor
	readout     *tensor.Tensor
	closed      bool
}

// NewStatefulRunner returns a streaming runner over the engine's
// network. packOn carries no meaning: hidden planes are always packed
// (compute.PackSpikePlanes, a constant true, is what every caller
// passes here); the parameter stays because the benchmark's surface
// names this signature.
func (e *Engine) NewStatefulRunner(packOn bool) (*StatefulRunner, error) {
	net, ok := e.model.(*snn.Network)
	if !ok {
		return nil, fmt.Errorf("serve: streaming requires a spiking network, engine serves %T", e.model)
	}
	r := &StatefulRunner{e: e, net: net, tape: autodiff.NewFrozenTapeOn(e.be)}
	r.Reset()
	return r, nil
}

// Reset drops all carried state — membrane, adaptation and readout —
// returning the runner to its initial condition.
func (r *StatefulRunner) Reset() {
	r.mem = make([]*tensor.Tensor, len(r.net.Hidden))
	r.excess = make([]*tensor.Tensor, len(r.net.Hidden))
	r.readout = nil
}

// Close marks the runner unusable.
func (r *StatefulRunner) Close() { r.closed = true }

// Step advances the network over one window of spike-only input planes
// (one per timestep, each [N, sample...]) and returns the window's own
// logits: the readout contributions of exactly these len(planes) steps,
// scaled by LogitScale/len(planes). The planes enter the network
// packed-only: a synapse reading one unpacks it into pooled scratch for
// that call, so no tape-lived dense input tensor exists.
func (r *StatefulRunner) Step(planes []*tensor.SpikeTensor) (out *tensor.Tensor, err error) {
	if r.closed {
		return nil, fmt.Errorf("serve: Step on closed runner")
	}
	if err := r.checkPlanes(planes); err != nil {
		return nil, err
	}
	tp := r.tape
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("serve: stream window failed: %v", p)
		}
		tp.Release()
	}()
	constant := func(t *tensor.Tensor) *autodiff.Value {
		if t == nil {
			return nil
		}
		return tp.Const(t)
	}
	st := r.net.NewState()
	for l := range r.mem {
		st.Membranes[l], st.Excess[l] = constant(r.mem[l]), r.excess[l]
	}
	st.Readout = constant(r.readout)
	var win *autodiff.Value
	for i, p := range planes {
		c := r.net.Step(tp, st, tp.Spikes(p))
		if win == nil {
			win = c
		} else {
			win = tp.Add(win, c)
		}
		if i == 0 {
			if ferr := faultinject.Apply(FaultStreamWindow); ferr != nil {
				return nil, fmt.Errorf("serve: stream window failed: %w", ferr)
			}
		}
	}
	out = tp.Scale(win, r.net.LogitScale/float64(len(planes))).Data.Clone()

	// The window succeeded: commit. Everything below copies tape-lived
	// data into the runner's tensors and cannot fail.
	for l, m := range st.Membranes {
		keep(&r.mem[l], m.Data)
		if st.Excess[l] != nil {
			keep(&r.excess[l], st.Excess[l])
		}
	}
	keep(&r.readout, st.Readout.Data)
	return out, nil
}

// keep copies src, which dies with the window's tape, into *dst,
// allocating it on the first window.
func keep(dst **tensor.Tensor, src *tensor.Tensor) {
	if *dst == nil {
		*dst = src.Clone()
	} else {
		(*dst).CopyFrom(src)
	}
}

func (r *StatefulRunner) checkPlanes(planes []*tensor.SpikeTensor) error {
	if len(planes) == 0 {
		return fmt.Errorf("serve: empty window")
	}
	sample := r.e.sample
	n := planes[0].Dim(0)
	for _, p := range planes {
		if p == nil || p.Dims() != len(sample)+1 || p.Dim(0) != n {
			return fmt.Errorf("serve: window planes must share a [N,%v] shape", sample)
		}
		for i, d := range sample {
			if p.Dim(i+1) != d {
				return fmt.Errorf("serve: plane shape %v does not match sample shape %v", p.Shape(), sample)
			}
		}
	}
	return nil
}
