package snn

import (
	"fmt"
	"math"
	"math/bits"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

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

// lifGrain is the elementwise work below which a LIF step loop (or its
// pullback) is not worth splitting across workers.
const lifGrain = 2048

// LIFStep advances one population of LIF neurons by one timestep on the
// tape. current is the synaptic input I[t] and membrane the previous
// state v[t−1] (any matching shapes). It returns the binary spike tensor
// s[t] and the post-reset membrane v[t], both differentiable:
//
//	pre  = α·v[t−1] + I[t]
//	s[t] = H(pre − Vth)            (surrogate derivative backward)
//	v[t] = pre·(1−s[t])            (reset to zero)
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
	if !current.Data.SameShape(membrane.Data) {
		panic(fmt.Sprintf("snn: LIF step current %v vs membrane %v shape mismatch", current.Data.Shape(), membrane.Data.Shape()))
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
	// The FastSigmoid neuron runs its full 64-neuron words on the AVX
	// kernel. Everything else (row tails, other surrogates, builds without
	// the kernel) runs the Go loop below, whose inline surrogate is
	// FastSigmoid.Grad verbatim, so kernel, inline expression and
	// interface call all store the same bits.
	fs, isFS := cfg.Surrogate.(FastSigmoid)
	kernel := tensor.HasAVX() && isFS
	// The LIF step is the producer of the network's binary planes: the
	// loop packs the plane while it thresholds (rows are word-aligned,
	// and the loop is partitioned by row, so the bit writes are
	// block-local). The packed plane is tape-lived like the slab; every
	// word is stored exactly once below, so the dirty pooled words are
	// fully overwritten. rowGrain ≤ 1 is the dispatch-worthy-row case:
	// one row alone exceeds lifGrain work.
	rows := shape[0]
	rowLen := n / rows
	words := (rowLen + 63) / 64
	spkBits := compute.GetUint64(rows * words)
	tp.OwnWords(spkBits)
	spkCounts := make([]int, rows)
	rowGrain := lifGrain / rowLen
	// The closure captures these copies, not cfg: Validate took cfg's
	// address, so capturing it would move cfg to the heap every step.
	alpha, vth, sg := cfg.Alpha, cfg.Vth, cfg.Surrogate
	tp.Backend().ParallelFor(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * rowLen
			cnt := 0
			w0 := 0
			if full := rowLen / 64; kernel && full > 0 {
				rowBits := spkBits[r*words:][:full]
				lifWordsAVX(&spk[base], &vout[base], ptrAt(surr, base), &cv[base], &mv[base], &rowBits[0], int64(full), alpha, vth, fs.Beta)
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
					var s float64
					if p > vth {
						s = 1
						wrd |= 1 << uint(i-base-w0)
					}
					spk[i] = s
					if surr != nil { // nil: no pullback will read dH/dpre
						if isFS {
							d := 1 + fs.Beta*math.Abs(p-vth)
							surr[i] = 1 / (d * d)
						} else {
							surr[i] = sg.Grad(p - vth)
						}
					}
					vout[i] = p * (1 - s)
				}
				spkBits[r*words+w0/64] = wrd
				cnt += bits.OnesCount64(wrd)
			}
			spkCounts[r] = cnt
		}
	})

	spikes, newMembrane = recordStep(tp, cfg.Alpha, current, membrane, spk, vout, surr)
	// Attach the plane packed inline above: a pool downstream reads it.
	spikes.AttachSpikes(tensor.NewSpikeTensorFromBits(spkBits, spkCounts, shape...))
	return spikes, newMembrane
}

// stepSlab returns the tape-lived arrays of one LIF step over n neurons
// — binary spikes, post-reset membrane and, when the step will record a
// pullback, the surrogate dH/dpre (nil otherwise) — as sections of one
// slab: a third of the allocations per step. The slab comes from the
// backend arena and is registered with the tape, so Tape.Release
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

// recordStep records a LIF step on the tape as one two-output node — the
// spike plane spk and the post-reset membrane vout — with one pullback
// into current and membrane. surr is the surrogate plane the pullback
// reads; it is nil exactly when neither parent requires a gradient, and
// then the two outputs are plain constants.
//
// With dpre/dI = 1 and dpre/dv_prev = α, the spike path contributes
// g_s·σ' (σ' the surrogate) and the membrane path, its reset gate
// detached, g_v·(1−s). One pass writes both products, membrane term
// first — the order two separate pullbacks would accumulate in —
//
//	dI = (0 + g_v·(1−s))   + g_s·σ'
//	dV = (0 + g_v·(1−s)·α) + g_s·σ'·α
//
// and hands them over; a gradient nothing produced (the last step's
// membrane, an unread spike plane) arrives nil and drops its term.
func recordStep(tp *autodiff.Tape, alpha float64, current, membrane *autodiff.Value, spk, vout, surr []float64) (spikes, newMembrane *autodiff.Value) {
	shape := current.Data.Shape()
	spikeT, voutT := tensor.FromSlice(spk, shape...), tensor.FromSlice(vout, shape...)
	if !tp.Tracks(current, membrane) {
		return tp.Const(spikeT), tp.Const(voutT)
	}
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
					m := gvd[i] * (1 - spk[i])
					a, b = 0+m, 0+m*alpha
				}
				if gsd != nil {
					s := gsd[i] * surr[i]
					a += s
					b += s * alpha
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
