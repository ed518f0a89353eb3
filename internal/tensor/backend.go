package tensor

import (
	"snnsec/internal/compute"
)

// Every kernel in this package executes through a compute.Backend: the
// exported legacy names (MatMul, Conv2D, ...) run on compute.Default(),
// and each has an ...On variant taking an explicit backend. Kernels use a
// fixed, partition-independent computation order — parallel blocks write
// disjoint outputs and accumulate in the same per-element order as the
// serial path — so Serial and Parallel backends produce bit-identical
// results (asserted by equivalence_test.go).

// Grain constants: the minimum amount of per-block work worth dispatching
// to a worker, expressed in loop iterations at each call site.
const (
	// elemGrain is the minimum elements per block for memory-bound
	// elementwise loops.
	elemGrain = 4096
	// opsGrain is the minimum floating-point operations per block for
	// compute-bound kernels (matmul, conv).
	opsGrain = 1 << 15
)

// grainRows converts a per-row operation count into a row grain so each
// parallel block carries at least opsGrain operations.
func grainRows(opsPerRow int) int {
	if opsPerRow <= 0 {
		return 1
	}
	g := opsGrain / opsPerRow
	if g < 1 {
		return 1
	}
	return g
}

// HasAVX reports whether this process runs the AVX kernels: the one CPU
// feature probe of the repository (CPUID + XGETBV on amd64, constant
// false elsewhere), exported for internal/snn, whose neuron-step kernel
// sits behind the same gate as the matmul panels here.
func HasAVX() bool { return useAVX }

// allFinite reports whether s contains no NaN or infinity. The scalar
// matmul tile uses it to gate its zero-skip behaviour: skipping a zero
// coefficient is only sound when the other operand is finite
// everywhere, because 0·NaN and 0·±Inf must propagate NaN into the
// product.
//
// The scan is branch-free: v·0 is ±0 for finite v and NaN for NaN/±Inf,
// and NaN is sticky through addition, so the accumulated sum is +0 iff
// every element is finite (±0 terms cannot turn an accumulator negative
// or non-zero). Four independent accumulators keep the multiply-add
// chains pipelined.
func allFinite(s []float64) bool {
	var a0, a1, a2, a3 float64
	i := 0
	for ; i+4 <= len(s); i += 4 {
		v := (*[4]float64)(s[i:])
		a0 += v[0] * 0
		a1 += v[1] * 0
		a2 += v[2] * 0
		a3 += v[3] * 0
	}
	for ; i < len(s); i++ {
		a0 += s[i] * 0
	}
	return a0+a1+a2+a3 == 0
}

// backendOr returns be, or the process default when be is nil.
func backendOr(be compute.Backend) compute.Backend {
	if be == nil {
		return compute.Default()
	}
	return be
}
