package compute

import "sync/atomic"

// Density-adaptive kernel dispatch.
//
// Every packed spike plane carries a popcount index, so the sparse-vs-
// dense kernel choice can be made per call from the plane's actual
// density instead of a process-wide toggle: the select-accumulate spike
// kernels do O(nnz) work and win when planes are mostly zeros, while the
// dense blocked/AVX kernels win once a plane is dense enough that
// skipping stops paying for its bookkeeping. On the reference container
// the crossover sits surprisingly high — ≈90% density on the 256³
// matmul (measured by TestDensityCrossoverGate in internal/tensor and
// tabulated in EXPERIMENTS.md), because the dense kernel's own zero-skip
// gate keeps it on a branchy path whenever the operand has any zeros at
// all; only a fully dense plane reaches the pure AVX speed. The
// thresholds here are calibrated from that benchmark.
//
// Because the spike kernels are bit-identical to the dense kernels on
// binary inputs (and fall back to dense themselves when 0·NaN/0·Inf
// propagation could be observed), the dispatch decision NEVER changes a
// result — it is purely a speed choice, which is what lets it be
// density-adaptive rather than part of the determinism contract. The
// decision lives in internal/compute so both internal/tensor and
// internal/autodiff can consult it without an import cycle; density
// travels as a plain float64 for the same reason.

// KernelFamily identifies which kernel pair a dispatch decision selects
// between; families can calibrate different crossover thresholds.
type KernelFamily int

const (
	// KernelMatMul covers SpikeMatMul/SpikeMatMulATB vs the blocked
	// dense matmuls.
	KernelMatMul KernelFamily = iota
	// KernelConv covers the packed im2col + SpikeConv2D pipeline vs the
	// dense batched conv pipeline.
	KernelConv
	// KernelPool covers the popcount-window pooling kernels vs the
	// dense pooling loops.
	KernelPool
)

// DispatchMode selects how the sparse-vs-dense choice is made.
type DispatchMode int

const (
	// DispatchAdaptive picks per call from the plane's density and the
	// family's threshold. This is the default.
	DispatchAdaptive DispatchMode = iota
	// DispatchSparse forces the spike kernels whenever a packed plane is
	// available, regardless of density (the pre-dispatch PR-3 behaviour;
	// used by tests and benchmarks to pin one side).
	DispatchSparse
	// DispatchDense forces the dense kernels and stops producers from
	// packing spike planes at all (the old SetSpikeKernels(false)).
	DispatchDense
)

// The adaptive thresholds are spike densities in [0,1]: a packed plane
// takes the sparse kernel iff its density is at or below its family's
// threshold. They are calibrated on the reference container (see the
// density-crossover table in EXPERIMENTS.md): the spike matmul still
// wins at 90% density (1.27×) and loses only on fully dense planes, so
// the matmul threshold sits at 85% — below the measured crossover with
// margin for shapes the benchmark does not cover. The conv threshold is
// more conservative because the packed im2col pipeline adds per-call
// overhead the matmul sweep does not measure. Popcounting a window is
// cheaper than reading k² floats at every density, so pooling is always
// sparse when a plane is available.
const (
	matMulThreshold = 0.85
	convThreshold   = 0.75
	poolThreshold   = 1
)

// dispatchMode holds the active DispatchMode; the zero value is
// DispatchAdaptive, so the fast path needs no init.
var dispatchMode atomic.Int32

// SetDispatchMode pins the process-wide dispatch mode. Only tests and
// benchmarks call it, to force one side of the sparse-vs-dense pair as
// the reference.
func SetDispatchMode(m DispatchMode) { dispatchMode.Store(int32(m)) }

// ActiveDispatchMode returns the process-wide dispatch mode.
func ActiveDispatchMode() DispatchMode { return DispatchMode(dispatchMode.Load()) }

// UseSparse reports whether a kernel call of the given family should
// take the sparse (spike) kernel for a packed plane of the given
// density. Callers only consult it when a packed plane exists; without
// one there is no choice to make.
func UseSparse(f KernelFamily, density float64) bool {
	sparse := useSparse(f, density)
	countDispatch(f, sparse)
	return sparse
}

func useSparse(f KernelFamily, density float64) bool {
	switch ActiveDispatchMode() {
	case DispatchSparse:
		return true
	case DispatchDense:
		return false
	}
	switch f {
	case KernelConv:
		return density <= convThreshold
	case KernelPool:
		return density <= poolThreshold
	default:
		return density <= matMulThreshold
	}
}

// PackSpikePlanes reports whether spike producers (the LIF/ALIF
// threshold steps, the binary encoders) should pack their outputs.
// Packing stays on under DispatchAdaptive even above the crossover —
// the popcount index is exactly what the per-call decision reads, and
// packing costs one pass over bits the producer already touches — and
// turns off only under DispatchDense, which exists to benchmark the
// dense baseline without any packing overhead.
func PackSpikePlanes() bool { return ActiveDispatchMode() != DispatchDense }
