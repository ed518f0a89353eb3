package snn

import (
	"fmt"

	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// Forward-only producers for the tape-free inference engine
// (internal/serve). These mirror LIFStep/ALIFStep/Encode elementwise
// expression for elementwise expression — same leak, threshold, reset
// and packing — but record nothing: no surrogate pass, no pullbacks, no
// tape-owned allocations. State lives in caller-provided slabs that the
// engine draws from the backend arena and reuses across timesteps, so a
// T-step forward touches a fixed working set instead of T tapes' worth
// of activations. Because every float expression is the taped producer's
// verbatim, default-tier results are bit-identical to the taped forward
// (pinned by the forward-equivalence suite in internal/serve).

// ForwardEncoder is implemented by encoders that can emit a timestep
// without a tape. EncodeForward returns the dense drive and, when spike
// packing is on and the drive is binary, its packed plane (nil
// otherwise). Implementations must consume any internal randomness
// exactly as Encode does, so a reseeded encoder produces the same spike
// trains on either path.
type ForwardEncoder interface {
	Encoder
	EncodeForward(be compute.Backend, x *tensor.Tensor, t int) (*tensor.Tensor, *tensor.SpikeTensor)
}

// EncodeForward returns Gain·x regardless of t. Like Encode, the output
// carries no packed plane: the analog drive is not binary.
func (e ConstantCurrentEncoder) EncodeForward(be compute.Backend, x *tensor.Tensor, t int) (*tensor.Tensor, *tensor.SpikeTensor) {
	if e.Gain == 1 {
		return x, nil
	}
	return tensor.ScaleOn(be, x, e.Gain), nil
}

// EncodeForward samples the same Bernoulli spike train as Encode — the
// two share the sampler — without recording the straight-through
// estimator.
func (e *PoissonEncoder) EncodeForward(be compute.Backend, x *tensor.Tensor, t int) (*tensor.Tensor, *tensor.SpikeTensor) {
	return binaryPlane(be, tensor.FromSlice(e.sample(make([]float64, x.Len()), x.Data()), x.Shape()...))
}

// EncodeForward emits the latency-coded spikes for step t without
// recording the straight-through estimator.
func (e LatencyEncoder) EncodeForward(be compute.Backend, x *tensor.Tensor, t int) (*tensor.Tensor, *tensor.SpikeTensor) {
	return binaryPlane(be, tensor.FromSlice(e.plane(make([]float64, x.Len()), x.Data(), t), x.Shape()...))
}

// binaryPlane returns a 0/1 drive with its packed plane when spike
// packing is on (nil otherwise).
func binaryPlane(be compute.Backend, out *tensor.Tensor) (*tensor.Tensor, *tensor.SpikeTensor) {
	if compute.PackSpikePlanes() {
		return out, tensor.PackSpikesOn(be, out)
	}
	return out, nil
}

// FusedLIFForward advances one LIF population one timestep without a
// tape: leak, integrate, threshold, reset and bit-pack fused into a
// single pass over the population. cur is the synaptic input I[t]; mem
// the membrane state v[t−1], updated IN PLACE to v[t]; spk receives the
// binary spikes s[t] (len(cur) each). rows is the leading (batch)
// dimension the packed plane is row-aligned on. When bits is non-nil the
// plane is packed into bits/counts (rows·words and rows long, exactly as
// LIFStep lays them out); a nil bits skips packing, e.g. for a readout
// population whose spikes only feed an elementwise accumulator.
//
// The per-element expressions are LIFStep's verbatim, so the results are
// bit-identical to the taped step at the default tier.
func FusedLIFForward(be compute.Backend, cfg NeuronConfig, cur, mem, spk []float64, rows int, bits []uint64, counts []int) {
	if err := (&cfg).Validate(); err != nil {
		panic(err)
	}
	if cfg.Reset != ResetZero && cfg.Reset != ResetSubtract {
		panic(fmt.Sprintf("snn: unknown reset mode %v", cfg.Reset))
	}
	n := len(cur)
	if len(mem) != n || len(spk) != n {
		panic(fmt.Sprintf("snn: FusedLIFForward slab sizes %d/%d for %d neurons", len(mem), len(spk), n))
	}
	rowLen := n / rows
	words := (rowLen + 63) / 64
	packOn := bits != nil
	if packOn && (len(bits) != rows*words || len(counts) != rows) {
		panic(fmt.Sprintf("snn: FusedLIFForward pack storage %d/%d for %d rows × %d words", len(bits), len(counts), rows, words))
	}
	be.ParallelFor(rows, lifGrain/rowLen, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * rowLen
			wi := r * words
			var wrd uint64
			cnt := 0
			for j := 0; j < rowLen; j++ {
				i := base + j
				p := cfg.Alpha*mem[i] + cur[i]
				var s float64
				if p > cfg.Vth {
					s = 1
					if packOn {
						wrd |= 1 << (uint(j) & 63)
						cnt++
					}
				}
				spk[i] = s
				if cfg.Reset == ResetZero {
					mem[i] = p * (1 - s)
				} else {
					mem[i] = p - cfg.Vth*s
				}
				if packOn && j&63 == 63 {
					bits[wi] = wrd
					wi++
					wrd = 0
				}
			}
			if packOn {
				if rowLen&63 != 0 {
					bits[wi] = wrd
				}
				counts[r] = cnt
			}
		}
	})
}

// FusedALIFForward is FusedLIFForward for an adaptive-threshold (ALIF)
// population: ex carries the threshold excess (th − Vth), updated IN
// PLACE alongside the membrane. Expressions mirror ALIFStep verbatim.
func FusedALIFForward(be compute.Backend, cfg AdaptiveConfig, cur, mem, ex, spk []float64, rows int, bits []uint64, counts []int) {
	if err := (&cfg).Validate(); err != nil {
		panic(err)
	}
	if cfg.Reset != ResetZero && cfg.Reset != ResetSubtract {
		panic(fmt.Sprintf("snn: unknown reset mode %v", cfg.Reset))
	}
	n := len(cur)
	if len(mem) != n || len(ex) != n || len(spk) != n {
		panic(fmt.Sprintf("snn: FusedALIFForward slab sizes %d/%d/%d for %d neurons", len(mem), len(ex), len(spk), n))
	}
	rowLen := n / rows
	words := (rowLen + 63) / 64
	packOn := bits != nil
	if packOn && (len(bits) != rows*words || len(counts) != rows) {
		panic(fmt.Sprintf("snn: FusedALIFForward pack storage %d/%d for %d rows × %d words", len(bits), len(counts), rows, words))
	}
	be.ParallelFor(rows, lifGrain/rowLen, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * rowLen
			wi := r * words
			var wrd uint64
			cnt := 0
			for j := 0; j < rowLen; j++ {
				i := base + j
				p := cfg.Alpha*mem[i] + cur[i]
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
				if cfg.Reset == ResetZero {
					mem[i] = p * (1 - s)
				} else {
					mem[i] = p - th*s
				}
				ex[i] = ex[i]*cfg.AdaptDecay + cfg.AdaptStep*s
				if packOn && j&63 == 63 {
					bits[wi] = wrd
					wi++
					wrd = 0
				}
			}
			if packOn {
				if rowLen&63 != 0 {
					bits[wi] = wrd
				}
				counts[r] = cnt
			}
		}
	})
}
