package snn

import (
	"fmt"
	"math"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
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
	if c.AdaptStep < 0 {
		return fmt.Errorf("snn: AdaptStep must be non-negative, got %g", c.AdaptStep)
	}
	if c.AdaptDecay < 0 || c.AdaptDecay >= 1 {
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

// NewALIFState returns the zero state for a population of the given
// shape.
func NewALIFState(tp *autodiff.Tape, shape ...int) *ALIFState {
	return &ALIFState{
		V:        tp.Const(tensor.New(shape...)),
		ThExcess: tensor.New(shape...),
	}
}

// ALIFStep advances an adaptive LIF population one timestep. The spike
// condition compares the membrane against the *adapted* threshold
// Vth + excess; gradients flow through the membrane path exactly as in
// LIFStep (the two share their pullbacks, recordStep) while the
// adaptation state is updated out-of-graph.
func ALIFStep(tp *autodiff.Tape, cfg AdaptiveConfig, current *autodiff.Value, st *ALIFState) (spikes *autodiff.Value, next *ALIFState) {
	if err := (&cfg).Validate(); err != nil {
		panic(err)
	}
	if !current.Data.SameShape(st.V.Data) || !current.Data.SameShape(st.ThExcess) {
		panic(fmt.Sprintf("snn: ALIFStep shape mismatch current %v vs state %v/%v",
			current.Data.Shape(), st.V.Data.Shape(), st.ThExcess.Shape()))
	}
	if cfg.Reset != ResetZero && cfg.Reset != ResetSubtract {
		panic(fmt.Sprintf("snn: unknown reset mode %v", cfg.Reset))
	}
	n := current.Data.Len()
	shape := current.Data.Shape()
	be := tp.Backend()

	spk, vout, surr := stepSlab(tp, n, current.RequiresGrad() || st.V.RequiresGrad())
	newExcess := tensor.New(shape...)
	cv, mv, ex, ne := current.Data.Data(), st.V.Data.Data(), st.ThExcess.Data(), newExcess.Data()
	// Devirtualise the default surrogate (see LIFStep); the inline
	// expression is FastSigmoid.Grad verbatim.
	fs, isFS := cfg.Surrogate.(FastSigmoid)
	// Pack the spike plane inline while thresholding, exactly as
	// LIFStep does: the loop is partitioned by (word-aligned) row, so
	// bit writes stay block-local and a dense-kernel run pays nothing.
	rows := shape[0]
	rowLen := n / rows
	words := (rowLen + 63) / 64
	packOn := compute.PackSpikePlanes()
	var spkBits []uint64
	var spkCounts []int
	if packOn {
		// Tape-lived like the slab; every word is stored exactly once.
		spkBits = compute.GetUint64(rows * words)
		tp.OwnWords(spkBits)
		spkCounts = make([]int, rows)
	}
	be.ParallelFor(rows, lifGrain/rowLen, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * rowLen
			wi := r * words
			var wrd uint64
			cnt := 0
			for j := 0; j < rowLen; j++ {
				i := base + j
				p := cfg.Alpha*mv[i] + cv[i]
				th := cfg.Vth + ex[i]
				var s float64
				if p > th {
					s = 1
					if packOn {
						wrd |= 1 << (uint(j) & 63)
						cnt++
					}
				}
				spk[i] = s
				if surr != nil { // nil: no pullback will read dH/dpre
					if isFS {
						d := 1 + fs.Beta*math.Abs(p-th)
						surr[i] = 1 / (d * d)
					} else {
						surr[i] = cfg.Surrogate.Grad(p - th)
					}
				}
				if cfg.Reset == ResetZero {
					vout[i] = p * (1 - s)
				} else {
					vout[i] = p - th*s
				}
				ne[i] = ex[i]*cfg.AdaptDecay + cfg.AdaptStep*s
				if packOn && j&63 == 63 {
					spkBits[wi] = wrd
					wi++
					wrd = 0
				}
			}
			if packOn {
				if rowLen&63 != 0 {
					spkBits[wi] = wrd
				}
				spkCounts[r] = cnt
			}
		}
	})

	spikes, vNode := recordStep(tp, cfg.NeuronConfig, current, st.V, spk, vout, surr)
	// Adaptive populations emit binary planes too: attach the plane
	// packed inline above so downstream synapses take the spike kernels.
	if packOn {
		spikes.AttachSpikes(tensor.NewSpikeTensorFromBits(spkBits, spkCounts, shape...))
	}
	return spikes, &ALIFState{V: vNode, ThExcess: newExcess}
}
