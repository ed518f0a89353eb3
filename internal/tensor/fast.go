package tensor

import "snnsec/internal/compute"

// The fast tier (compute.Float32, opt-in via `snnsec -fast`) reroutes
// the dense matmul hot path — and therefore the batched conv pipeline
// and every autodiff product built on it — through float32 staging:
// operands are down-converted once into pooled float32 buffers, the
// product runs a float32 blocked kernel (FMA+AVX2 micro-kernel when the
// CPU has one, a scalar float32 tile otherwise), and the result is
// up-converted and accumulated into the caller's float64 destination.
// Half the memory traffic and twice the SIMD lanes of the default
// kernels, at the cost of float32 rounding (~1e-7 relative per
// operation) plus one fused rounding per FMA step.
//
// Determinism: the fast tier keeps the structural rules of the default
// tier — one accumulator per output element, ascending-k order, kernel
// choice per row block depending only on shape (never on partitioning)
// — so fast-tier results are bit-identical run-to-run and across the
// Serial/Parallel backends on one machine. They are NOT bit-identical
// to the default tier (that is the trade), and may differ between
// machines with and without FMA hardware. Conversion to float32 can
// overflow to ±Inf for magnitudes above ~3.4e38 and flushes subnormal
// products through float32 granularity; NaN/Inf propagate naturally.
//
// The spike select-accumulate kernels and the reference naive kernels
// are unaffected: spikes multiply by 0/1 (exact in either width), and
// the naive kernels are the pinned bit-exactness witnesses of the
// default tier.
const (
	// fmaRows × fmaCols is the FMA register tile: 4 rows × two 8-wide
	// ymm accumulators per row.
	fmaRows = 4
	fmaCols = 16
)

// HasFastKernels reports whether the fast tier runs on the FMA+AVX2
// micro-kernel on this CPU. Without it the fast tier still works (and
// stays deterministic) on the scalar float32 loop, but has no speed
// advantage over the default tier's AVX kernels — the CLI and the perf
// gate use this to warn/skip rather than promise a speedup the hardware
// cannot deliver.
func HasFastKernels() bool { return useFMA32 }

// matMulFastInto is the fast-tier body of matMulAccum: it accumulates
// a·b into dst (len m*n) for a [m,k] and b [k,n] through float32
// staging buffers. The zero-skip path is dropped — the float32 kernels
// are cheap enough that skipping only pays on the spike planes, which
// route through the spike kernels before precision is even consulted.
func matMulFastInto(be compute.Backend, dst, a, b []float64, m, k, n int) {
	a32 := compute.GetFloat32(m * k)
	defer compute.PutFloat32(a32)
	downConvert(be, a32, a)
	matMulFastStaged(be, dst, a32, b, m, k, n)
}

// matMulATBFastInto is the fast-tier body of matMulATBAccum: aᵀ·b for a
// [k,m], b [k,n]. The transpose is folded into the down-conversion pass
// (a32 is written [m,k] row-major), which reorders memory but not any
// per-element reduction, so the float32 kernel's ascending-p order is
// preserved.
func matMulATBFastInto(be compute.Backend, dst, a, b []float64, k, m, n int) {
	a32 := compute.GetFloat32(m * k)
	defer compute.PutFloat32(a32)
	be.ParallelFor(m, grainRows(k), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a32[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				row[p] = float32(a[p*m+i])
			}
		}
	})
	matMulFastStaged(be, dst, a32, b, m, k, n)
}

// matMulFastStaged runs the shared tail of the fast-tier products: b is
// down-converted, the float32 product lands in a pooled buffer, and the
// result is up-converted and accumulated into the float64 dst.
func matMulFastStaged(be compute.Backend, dst []float64, a32 []float32, b []float64, m, k, n int) {
	b32 := compute.GetFloat32(k * n)
	c32 := compute.GetFloat32(m * n)
	defer compute.PutFloat32(b32)
	defer compute.PutFloat32(c32)
	downConvert(be, b32, b)
	be.ParallelFor(m*n, elemGrain, func(lo, hi int) {
		clear(c32[lo:hi])
	})
	matMulF32Into(be, c32, a32, b32, m, k, n)
	be.ParallelFor(m*n, elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] += float64(c32[i])
		}
	})
}

// downConvert fills dst[i] = float32(src[i]), partitioned across
// workers.
func downConvert(be compute.Backend, dst []float32, src []float64) {
	be.ParallelFor(len(src), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = float32(src[i])
		}
	})
}

// matMulF32Into accumulates a·b into dst (len m*n, caller-zeroed) in
// float32, reading a [m,k] and b [k,n]. The blocking mirrors
// matMulAccum: row blocks of fmaRows rows partitioned across workers,
// ncBlock-column panels walked panel-major, the FMA micro-kernel on
// full tiles and the scalar float32 loop on fringes. Kernel choice per
// sub-panel depends only on (m, n, j0), never on the partitioning, so
// Serial and Parallel stay bit-identical within the fast tier.
func matMulF32Into(be compute.Backend, dst, a, b []float32, m, k, n int) {
	rblocks := (m + fmaRows - 1) / fmaRows
	be.ParallelFor(rblocks, grainRows(2*k*n*fmaRows), func(lo, hi int) {
		for j0 := 0; j0 < n; j0 += ncBlock {
			jw := min(ncBlock, n-j0)
			for rb := lo; rb < hi; rb++ {
				i0 := rb * fmaRows
				ir := min(fmaRows, m-i0)
				if !useFMA32 || jw < fmaCols {
					matMulF32RowsGo(dst, a, b, i0, ir, j0, jw, k, n)
					continue
				}
				groups := jw / fmaCols
				jA := groups * fmaCols
				i, irr := i0, ir
				if irr >= 4 {
					mmPanel4FMA32(&dst[i*n+j0], int64(4*n),
						&a[(i+0)*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k], 4,
						&b[j0], int64(4*n), int64(k), int64(groups))
					i, irr = i+4, irr-4
				}
				if irr >= 2 {
					mmPanel2FMA32(&dst[i*n+j0], int64(4*n),
						&a[(i+0)*k], &a[(i+1)*k], 4,
						&b[j0], int64(4*n), int64(k), int64(groups))
					i, irr = i+2, irr-2
				}
				if irr == 1 {
					matMulF32RowsGo(dst, a, b, i, 1, j0, jA, k, n)
				}
				if jA < jw {
					matMulF32RowsGo(dst, a, b, i0, ir, j0+jA, jw-jA, k, n)
				}
			}
		}
	})
}

// matMulF32RowsGo is the scalar float32 fallback/fringe kernel: one
// output row at a time, i-p-j order, ascending-p accumulation with
// separate multiply and add (Go does not fuse on amd64, so the fringe
// rounding is stable run to run).
func matMulF32RowsGo(dst, a, b []float32, i0, ir, j0, jw, k, n int) {
	for i := i0; i < i0+ir; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n+j0 : i*n+j0+jw]
		for p := 0; p < k; p++ {
			av := arow[p]
			brow := b[p*n+j0:]
			for jj := range orow {
				orow[jj] += av * brow[jj]
			}
		}
	}
}
