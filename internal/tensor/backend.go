package tensor

import (
	"snnsec/internal/compute"
)

// Every kernel in this package executes through a compute.Backend passed
// explicitly (nil selects compute.Default()). Kernels use a
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

// KernelTier names the widest kernels this process computes with:
// "avx512" (the zmm tap-table panels), "avx2" (the ymm kernels, which
// need only AVX) or "go" (the Go bodies). The tiers are bit-identical;
// the name says which instructions produced a timing.
func KernelTier() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX:
		return "avx2"
	}
	return "go"
}

// backendOr returns be, or the process default when be is nil.
func backendOr(be compute.Backend) compute.Backend {
	if be == nil {
		return compute.Default()
	}
	return be
}
