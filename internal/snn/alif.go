package snn

import (
	"fmt"
	"math"

	"snnsec/internal/autodiff"
	"snnsec/internal/tensor"
)

// AdaptiveConfig extends NeuronConfig with threshold adaptation (the ALIF
// neuron of Bellec et al.): each spike raises the effective threshold by
// AdaptStep, and the excess decays back toward the base Vth with factor
// AdaptDecay per step:
//
//	th[t+1] = Vth + (th[t] − Vth)·AdaptDecay + AdaptStep·s[t]
//
// Threshold adaptation is a *dynamic* counterpart of the paper's static
// Vth knob — the "more complex behaviour" its future-work section
// anticipates — and is exercised by the extension benchmarks.
type AdaptiveConfig struct {
	NeuronConfig
	// AdaptStep is the per-spike threshold increment (≥ 0).
	AdaptStep float64
	// AdaptDecay is the per-step decay of the threshold excess in [0,1).
	AdaptDecay float64
}

// Validate checks the adaptive parameters on top of the base config.
func (c *AdaptiveConfig) Validate() error {
	if err := c.NeuronConfig.Validate(); err != nil {
		return err
	}
	if !(c.AdaptStep >= 0) || math.IsInf(c.AdaptStep, 1) {
		return fmt.Errorf("snn: AdaptStep must be non-negative and finite, got %g", c.AdaptStep)
	}
	if !(c.AdaptDecay >= 0 && c.AdaptDecay < 1) {
		return fmt.Errorf("snn: AdaptDecay must be in [0,1), got %g", c.AdaptDecay)
	}
	return nil
}

// ALIFState carries the two state tensors of an adaptive population
// between timesteps.
type ALIFState struct {
	// V is the membrane potential node.
	V *autodiff.Value
	// ThExcess is the threshold excess (th − Vth) as a plain tensor; the
	// adaptation path is treated as non-differentiable state, as in
	// e-prop style truncations.
	ThExcess *tensor.Tensor
}

// ALIFStep advances an adaptive LIF population one timestep. The spike
// condition compares the membrane against the *adapted* threshold
// Vth + excess; gradients flow through the membrane path exactly as in
// LIFStep (the two are one body, thresholdStep) while the adaptation
// state is updated out-of-graph.
func ALIFStep(tp *autodiff.Tape, cfg AdaptiveConfig, current *autodiff.Value, st *ALIFState) (spikes *autodiff.Value, next *ALIFState) {
	if err := (&cfg).Validate(); err != nil {
		panic(err)
	}
	newExcess := tp.Output(current.Data.Shape()...)
	spikes, v := thresholdStep(tp, cfg.NeuronConfig, current, st.V, st.ThExcess.Data(), newExcess.Data(), cfg.AdaptDecay, cfg.AdaptStep)
	return spikes, &ALIFState{V: v, ThExcess: newExcess}
}
