package snn

import (
	"fmt"

	"snnsec/internal/autodiff"
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

// Encode returns plane t as a packed-only constant, ignoring the static
// input x — the train already is the input. It reaches the first
// synapse exactly as a streamed event window does: unpacked into pooled
// scratch for the one kernel call that reads it.
func (e *SpikeTrainEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	if t < 0 || t >= len(e.Planes) {
		panic(fmt.Sprintf("snn: spike train has %d planes, no step %d", len(e.Planes), t))
	}
	return tp.Spikes(e.Planes[t])
}
