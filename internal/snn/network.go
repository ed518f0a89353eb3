package snn

import (
	"fmt"

	"snnsec/internal/autodiff"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// Layer couples a synaptic transformation (convolution, pooling, linear —
// any nn.Layer) with the LIF population that receives its current.
type Layer struct {
	Syn nn.Layer
	Cfg NeuronConfig
}

// Trace records per-layer activity statistics of the last forward pass
// when attached to a Network. It is diagnostic only; recording does not
// affect gradients.
type Trace struct {
	// SpikeRates[l] is the mean firing probability of hidden layer l
	// over all neurons, samples and timesteps.
	SpikeRates []float64
	// OutputRate is the mean activity of the readout population.
	OutputRate float64
}

// Network is a spiking classifier: an encoder feeding a stack of
// (synapse → LIF) layers, simulated for T timesteps, with a spike-count
// (rate) readout. It implements nn.Classifier, so attacks and training
// treat it exactly like the CNN baseline — the white-box adversary
// backpropagates through the full unrolled time window.
type Network struct {
	Encoder Encoder
	Hidden  []Layer
	// Readout is the final synapse producing one current per class.
	Readout nn.Layer
	// ReadoutCfg configures the output LIF population, whose spike count
	// over the time window is the class score (rate decoding, as in the
	// paper's Fig. 3).
	ReadoutCfg NeuronConfig
	// T is the simulation time window — the structural parameter the
	// paper sweeps together with Vth.
	T int
	// LogitScale multiplies the time-averaged readout before the
	// softmax; spike rates live in [0,1], so a scale ≈10 restores a
	// useful logit dynamic range.
	LogitScale float64
	// Record, when non-nil, receives activity statistics each forward
	// pass.
	Record *Trace
}

// Validate checks the network invariants.
func (n *Network) Validate() error {
	if n.Encoder == nil {
		return fmt.Errorf("snn: network has no encoder")
	}
	if n.T <= 0 {
		return fmt.Errorf("snn: time window T must be positive, got %d", n.T)
	}
	if n.Readout == nil {
		return fmt.Errorf("snn: network has no readout synapse")
	}
	if !(n.LogitScale > 0) {
		return fmt.Errorf("snn: LogitScale must be positive, got %g", n.LogitScale)
	}
	for i := range n.Hidden {
		cfg := n.Hidden[i].Cfg
		if err := (&cfg).Validate(); err != nil {
			return fmt.Errorf("snn: hidden layer %d: %w", i, err)
		}
	}
	cfg := n.ReadoutCfg
	if err := (&cfg).Validate(); err != nil {
		return fmt.Errorf("snn: readout: %w", err)
	}
	return nil
}

// SetVth sets the firing threshold of every LIF population (hidden and
// readout) — the Vth knob of the paper's (Vth, T) grid.
func (n *Network) SetVth(vth float64) {
	for i := range n.Hidden {
		n.Hidden[i].Cfg.Vth = vth
	}
	n.ReadoutCfg.Vth = vth
}

// State is what a simulation carries from one timestep to the next: the
// membrane of every hidden population and of the readout. An entry is
// nil until the first Step creates it, zero, at the shape its synapse's
// current turns out to have. The values belong to the tape they were recorded on; a caller
// that simulates across tapes (the streaming runner) copies their data
// out before releasing one tape and records it as constants on the next.
type State struct {
	Membranes []*autodiff.Value
	Readout   *autodiff.Value

	// Activity sums for the network's Trace; nil when it records none.
	rateSums   []float64
	outRateSum float64
}

// NewState returns the initial (all-zero) state of a simulation.
func (n *Network) NewState() *State {
	st := &State{Membranes: make([]*autodiff.Value, len(n.Hidden))}
	if n.Record != nil {
		st.rateSums = make([]float64, len(n.Hidden))
	}
	return st
}

// Step advances the network one timestep on the input drive h, updating
// st, and returns the readout's contribution to the class scores: the
// output population's spikes. It is the one body of every
// forward pass — Logits loops it over the encoder's T planes, the
// streaming runner over a window of event planes — and records on
// whatever tape it is given: the full BPTT graph on a recording tape,
// input gradients only on a frozen one, constants alone when h and the
// state are constants too.
//
// Each step runs every synapse over the whole batch (one batched
// convolution or matmul per synapse) and every LIF population
// elementwise, all on the tape's backend, and the pullbacks replay the
// same batched kernels in reverse.
//
// Binary planes stay bit-packed between layers: the encoder and every
// LIF step attach the packed spike form to their output, so a pool fed
// by spikes answers from popcounts. Every synapse runs the dense
// kernels; a packed-only input (a replayed train, a binned event
// window) is unpacked into pooled scratch for each call that reads it.
func (n *Network) Step(tp *autodiff.Tape, st *State, h *autodiff.Value) *autodiff.Value {
	for l := range n.Hidden {
		cur := n.Hidden[l].Syn.Forward(tp, h)
		if st.Membranes[l] == nil {
			st.Membranes[l] = tp.Zeros(cur.Data.Shape()...)
		}
		h, st.Membranes[l] = LIFStep(tp, n.Hidden[l].Cfg, cur, st.Membranes[l])
		if st.rateSums != nil {
			st.rateSums[l] += spikeRate(h)
		}
	}
	out := n.Readout.Forward(tp, h)
	if st.Readout == nil {
		st.Readout = tp.Zeros(out.Data.Shape()...)
	}
	var contribution *autodiff.Value
	contribution, st.Readout = LIFStep(tp, n.ReadoutCfg, out, st.Readout)
	if st.rateSums != nil {
		st.outRateSum += spikeRate(contribution)
	}
	return contribution
}

// Logits simulates the network for T steps from the zero state and
// returns [N, classes] scores: the sum of the T readout contributions,
// scaled by LogitScale/T. It implements nn.Classifier.
//
// This is the BPTT hot loop: wall-clock for training and for white-box
// attacks alike is dominated by these T unrolled steps, which is why the
// (Vth, T) exploration scales linearly in T.
func (n *Network) Logits(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value {
	if err := n.Validate(); err != nil {
		panic(err)
	}
	st := n.NewState()
	var acc *autodiff.Value
	for t := 0; t < n.T; t++ {
		contribution := n.Step(tp, st, n.Encoder.Encode(tp, x, t))
		if acc == nil {
			acc = contribution
		} else {
			acc = tp.Add(acc, contribution)
		}
	}
	if n.Record != nil {
		n.Record.SpikeRates = st.rateSums
		for l := range n.Record.SpikeRates {
			n.Record.SpikeRates[l] /= float64(n.T)
		}
		n.Record.OutputRate = st.outRateSum / float64(n.T)
	}
	return tp.Scale(acc, n.LogitScale/float64(n.T))
}

// spikeRate returns the mean activity of a value, reading the packed
// popcount index when the value carries one. The two reads are
// identical floats: a serial sum of 0/1 terms is the exact integer
// popcount (every partial sum is an integer well below 2^53).
func spikeRate(v *autodiff.Value) float64 {
	if s := v.Spikes(); s != nil {
		return s.Density()
	}
	return tensor.Mean(v.Data)
}

// Params returns all trainable parameters (hidden synapses then readout).
func (n *Network) Params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range n.Hidden {
		ps = append(ps, l.Syn.Params()...)
	}
	ps = append(ps, n.Readout.Params()...)
	return ps
}

var _ nn.Classifier = (*Network)(nil)
