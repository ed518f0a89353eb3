package snn

import (
	"fmt"
	"math"
	"math/bits"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// ResetMode selects how the membrane potential is reset after a spike.
type ResetMode int

const (
	// ResetZero clamps the membrane to 0 after a spike (Norse default).
	ResetZero ResetMode = iota
	// ResetSubtract subtracts Vth from the membrane after a spike,
	// preserving the residual above threshold.
	ResetSubtract
)

// String names the reset mode.
func (m ResetMode) String() string {
	switch m {
	case ResetZero:
		return "zero"
	case ResetSubtract:
		return "subtract"
	default:
		return fmt.Sprintf("ResetMode(%d)", int(m))
	}
}

// NeuronConfig holds the structural parameters of a LIF population. Vth is
// the firing threshold the paper sweeps; Alpha is the membrane decay
// (leak) factor per step, with Alpha = 1 degenerating to a non-leaky
// integrate-and-fire neuron.
type NeuronConfig struct {
	// Vth is the firing threshold voltage. The membrane emits a spike
	// when it strictly exceeds Vth.
	Vth float64
	// Alpha is the per-step membrane decay in (0, 1]; v decays to α·v
	// before integrating the input current.
	Alpha float64
	// Reset selects the post-spike reset behaviour.
	Reset ResetMode
	// Surrogate is the backward-pass spike derivative; nil selects
	// DefaultSurrogate.
	Surrogate Surrogate
}

// CheckVth returns an error unless vth can be a firing threshold:
// positive and finite. NaN fails every ordered comparison, so the test is
// written as what must hold rather than what must not — a NaN threshold
// would otherwise build a network that never spikes. It is the one
// definition the constructors above this package (core, explore) share.
func CheckVth(vth float64) error {
	if !(vth > 0) || math.IsInf(vth, 1) {
		return fmt.Errorf("threshold Vth must be positive and finite, got %g", vth)
	}
	return nil
}

// Validate checks the configuration and fills defaulted fields.
func (c *NeuronConfig) Validate() error {
	if err := CheckVth(c.Vth); err != nil {
		return fmt.Errorf("snn: %w", err)
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("snn: membrane decay Alpha must be in (0,1], got %g", c.Alpha)
	}
	if c.Surrogate == nil {
		c.Surrogate = DefaultSurrogate()
	}
	return nil
}

// DefaultNeuronConfig mirrors the paper's default structural point
// (Vth, T) = (1, 64): threshold 1, leak 0.9, reset-to-zero, fast-sigmoid
// surrogate.
func DefaultNeuronConfig() NeuronConfig {
	return NeuronConfig{Vth: 1, Alpha: 0.9, Reset: ResetZero, Surrogate: DefaultSurrogate()}
}

// lifGrain is the elementwise work below which a LIF/ALIF step loop (or
// its pullback) is not worth splitting across workers.
const lifGrain = 2048

// LIFStep advances one population of LIF neurons by one timestep on the
// tape. current is the synaptic input I[t] and membrane the previous
// state v[t−1] (any matching shapes). It returns the binary spike tensor
// s[t] and the post-reset membrane v[t], both differentiable:
//
//	pre  = α·v[t−1] + I[t]
//	s[t] = H(pre − Vth)            (surrogate derivative backward)
//	v[t] = pre·(1−s[t])            (ResetZero)
//	v[t] = pre − Vth·s[t]          (ResetSubtract)
//
// Following standard surrogate-gradient practice (STBP, Norse), the reset
// path treats s[t] as a constant: gradients flow through the reset gate's
// value, not through its dependence on pre. This keeps BPTT stable and
// matches what the paper's software stack does.
//
// When neither current nor membrane requires a gradient the step records
// no pullback, so the surrogate plane is neither computed nor stored.
func LIFStep(tp *autodiff.Tape, cfg NeuronConfig, current, membrane *autodiff.Value) (spikes, newMembrane *autodiff.Value) {
	if err := (&cfg).Validate(); err != nil {
		panic(err)
	}
	return thresholdStep(tp, cfg, current, membrane, nil, nil, 0, 0)
}

// thresholdStep is the one neuron-step body behind LIFStep and ALIFStep.
// excess, when non-nil, is the adaptive threshold excess th − Vth of the
// previous step, and newExcess receives excess·decay + inc·s, every
// element; a nil excess is the plain LIF neuron, th = Vth.
func thresholdStep(tp *autodiff.Tape, cfg NeuronConfig, current, membrane *autodiff.Value, excess, newExcess []float64, decay, inc float64) (spikes, newMembrane *autodiff.Value) {
	if !current.Data.SameShape(membrane.Data) || (excess != nil && len(excess) != current.Data.Len()) {
		panic(fmt.Sprintf("snn: neuron step current %v vs state %v (%d excess) shape mismatch", current.Data.Shape(), membrane.Data.Shape(), len(excess)))
	}
	if cfg.Reset != ResetZero && cfg.Reset != ResetSubtract {
		panic(fmt.Sprintf("snn: unknown reset mode %v", cfg.Reset))
	}
	n := current.Data.Len()
	shape := current.Data.Shape()

	// The per-neuron state update is embarrassingly parallel, and for a
	// convolutional population n is N·C·H·W — large enough that the BPTT
	// hot loop is worth running on the backend. The tensors the tape
	// retains (spikes, membrane, the surrogate for the pullback) are
	// sections of one arena slab.
	spk, vout, surr := stepSlab(tp, n, current.RequiresGrad() || membrane.RequiresGrad())
	cv := current.Data.Data()
	mv := membrane.Data.Data()
	// The default neuron — FastSigmoid surrogate, no adaptive excess — runs
	// its full 64-neuron words on the AVX kernel. Everything else (row
	// tails, other surrogates, ALIF, builds without the kernel) runs the Go
	// loop below, whose inline surrogate is FastSigmoid.Grad verbatim, so
	// kernel, inline expression and interface call all store the same bits.
	fs, isFS := cfg.Surrogate.(FastSigmoid)
	kernel := tensor.HasAVX() && isFS && excess == nil
	// The threshold step is the producer of the network's binary
	// planes: the loop packs the plane while it thresholds (rows are
	// word-aligned, and the loop is partitioned by row, so the bit
	// writes are block-local). The packed plane is tape-lived like the
	// slab; every word is stored exactly once below, so the dirty pooled
	// words are fully overwritten. rowGrain ≤ 1 is the
	// dispatch-worthy-row case: one row alone exceeds lifGrain work.
	rows := shape[0]
	rowLen := n / rows
	words := (rowLen + 63) / 64
	spkBits := compute.GetUint64(rows * words)
	tp.OwnWords(spkBits)
	spkCounts := make([]int, rows)
	rowGrain := lifGrain / rowLen
	alpha, vth, gated := cfg.Alpha, cfg.Vth, cfg.Reset == ResetZero
	tp.Backend().ParallelFor(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * rowLen
			cnt := 0
			w0 := 0
			if full := rowLen / 64; kernel && full > 0 {
				rowBits := spkBits[r*words:][:full]
				lifWordsAVX(&spk[base], &vout[base], ptrAt(surr, base), &cv[base], &mv[base], &rowBits[0], int64(full), alpha, vth, fs.Beta, gated)
				for _, wrd := range rowBits {
					cnt += bits.OnesCount64(wrd)
				}
				w0 = full * 64
			}
			// The reference body the kernel is pinned to, one packed
			// word's worth of neurons at a time. It is one loop for every
			// case on purpose: the hot case has left for the kernel, and a
			// copy per case would be a second thing to keep bit-identical.
			for ; w0 < rowLen; w0 += 64 {
				var wrd uint64
				for i, end := base+w0, base+min(w0+64, rowLen); i < end; i++ {
					p := alpha*mv[i] + cv[i]
					th := vth
					if excess != nil {
						th += excess[i]
					}
					var s float64
					if p > th {
						s = 1
						wrd |= 1 << uint(i-base-w0)
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
					if gated {
						vout[i] = p * (1 - s)
					} else {
						vout[i] = p - th*s
					}
					if excess != nil {
						newExcess[i] = excess[i]*decay + inc*s
					}
				}
				spkBits[r*words+w0/64] = wrd
				cnt += bits.OnesCount64(wrd)
			}
			spkCounts[r] = cnt
		}
	})

	spikes, newMembrane = recordStep(tp, cfg, current, membrane, spk, vout, surr)
	// Attach the plane packed inline above: a pool downstream reads it.
	spikes.AttachSpikes(tensor.NewSpikeTensorFromBits(spkBits, spkCounts, shape...))
	return spikes, newMembrane
}

// stepSlab returns the tape-lived arrays of one LIF/ALIF step over n
// neurons — binary spikes, post-reset membrane and, when the step will
// record a pullback, the surrogate dH/dpre (nil otherwise) — as sections
// of one slab: a third of the allocations per step. The slab comes from
// the backend arena and is registered with the tape, so Tape.Release
// recycles it once the step's values are dead — a T-step unrolled
// network cycles through a working set of slabs instead of holding every
// timestep's activations. The step loop fully overwrites every section,
// so the dirty pooled memory never leaks into results.
func stepSlab(tp *autodiff.Tape, n int, needGrad bool) (spk, vout, surr []float64) {
	sections := 2
	if needGrad {
		sections = 3
	}
	slab := tp.Output(sections * n).Data()
	if needGrad {
		surr = slab[2*n : 3*n : 3*n]
	}
	return slab[0*n : 1*n : 1*n], slab[1*n : 2*n : 2*n], surr
}

// recordStep records a LIF/ALIF step on the tape as one two-output node
// — the spike plane spk and the post-reset membrane vout — with the one
// pullback into current and membrane that both neuron kinds share (the
// adaptive threshold is out-of-graph state). surr is the surrogate plane
// the pullback reads; it is nil exactly when neither parent requires a
// gradient, and then the two outputs are plain constants.
//
// With dpre/dI = 1 and dpre/dv_prev = α, the spike path contributes
// g_s·σ' (σ' the surrogate) and the membrane path, its reset gate
// detached, g_v·(1−s) under ResetZero or g_v under ResetSubtract. One
// pass writes both products, membrane term first — the order two
// separate pullbacks would accumulate in —
//
//	dI = (0 + g_v·(1−s))   + g_s·σ'
//	dV = (0 + g_v·(1−s)·α) + g_s·σ'·α
//
// and hands them over; a gradient nothing produced (the last step's
// membrane, an unread spike plane) arrives nil and drops its term.
func recordStep(tp *autodiff.Tape, cfg NeuronConfig, current, membrane *autodiff.Value, spk, vout, surr []float64) (spikes, newMembrane *autodiff.Value) {
	shape := current.Data.Shape()
	spikeT, voutT := tensor.FromSlice(spk, shape...), tensor.FromSlice(vout, shape...)
	if !tp.Tracks(current, membrane) {
		return tp.Const(spikeT), tp.Const(voutT)
	}
	gated := cfg.Reset == ResetZero
	return tp.NewOp2(spikeT, voutT, func(gs, gv *tensor.Tensor) {
		dI, dV := tp.Product(shape...), tp.Product(shape...)
		di, dv := dI.Data(), dV.Data()
		var gsd, gvd []float64
		if gs != nil {
			gsd = gs.Data()
		}
		if gv != nil {
			gvd = gv.Data()
		}
		tp.Backend().ParallelFor(len(di), lifGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var a, b float64
				if gvd != nil {
					m := gvd[i]
					if gated {
						m *= 1 - spk[i]
					}
					a, b = 0+m, 0+m*cfg.Alpha
				}
				if gsd != nil {
					s := gsd[i] * surr[i]
					a += s
					b += s * cfg.Alpha
				}
				di[i], dv[i] = a, b
			}
		})
		current.HandGrad(dI)
		membrane.HandGrad(dV)
	}, current, membrane)
}

// ptrAt returns &s[i], or nil for a nil slice: how the kernel is told
// that a plane is absent.
func ptrAt[T any](s []T, i int) *T {
	if s == nil {
		return nil
	}
	return &s[i]
}

// LIStep advances a non-spiking leaky integrator (Norse's LICell), used as
// a voltage readout layer: v[t] = α·v[t−1] + I[t]. It is fully
// differentiable with no surrogate needed.
func LIStep(tp *autodiff.Tape, alpha float64, current, membrane *autodiff.Value) *autodiff.Value {
	if !(alpha > 0 && alpha <= 1) {
		panic(fmt.Sprintf("snn: LIStep alpha %g out of (0,1]", alpha))
	}
	return tp.Add(tp.Scale(membrane, alpha), current)
}
