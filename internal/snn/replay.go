package snn

import (
	"fmt"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// SpikeTrainEncoder replays a pre-binned spike train: plane t of Planes
// is the network's input drive at timestep t, verbatim. It is how the
// batch forward consumes the stream binner's output — the equivalence
// reference for the streaming runner — and more generally how any
// recorded event data reaches a network without re-encoding. The train
// is a constant: the pixels behind the events are not reachable, so no
// gradient flows into the static input.
type SpikeTrainEncoder struct {
	// Planes holds one packed [N,...] plane per timestep; the network's T
	// must not exceed len(Planes).
	Planes []*tensor.SpikeTensor
}

// Encode returns plane t as a constant, ignoring the static input x —
// the train already is the input: packed-only when packing is on, so the
// first synapse runs the spike kernels on the bits and no dense input is
// ever materialised, exactly as on the streaming path; its dense view
// when packing is off.
func (e *SpikeTrainEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	if t < 0 || t >= len(e.Planes) {
		panic(fmt.Sprintf("snn: spike train has %d planes, no step %d", len(e.Planes), t))
	}
	if compute.PackSpikePlanes() {
		return tp.Spikes(e.Planes[t])
	}
	return tp.Const(e.Planes[t].DenseOn(tp.Backend()))
}

// Name returns "spike_train(T)".
func (e *SpikeTrainEncoder) Name() string { return fmt.Sprintf("spike_train(T=%d)", len(e.Planes)) }
