package tensor

import (
	"fmt"

	"snnsec/internal/compute"
)

// The a·b and aᵀ·b kernels share a cache-blocked, register-tiled layout:
// the output is cut into row blocks of asmRows rows, partitioned across
// workers via Backend.ParallelFor, and each worker walks its rows in
// ncBlock-column panels (panel-major, so the slab of b a panel streams is
// reused by every row block the worker owns before moving on). Inside a
// panel every pair or quad of rows runs on the AVX micro-kernel when the
// CPU has one (4 rows × 8 columns of accumulators live in ymm registers
// across the whole k loop), whatever zeros the rows hold — the panel
// outruns the zero-skipping scalar tile at every density measured
// (EXPERIMENTS.md). What has no panel to run — a build without AVX, a
// panel narrower than 8 columns, a single-row block, the column fringe —
// runs on a 2×4 scalar register tile (one scalar row for an odd row),
// which skips zero coefficients when the finiteness gate allows it: a
// batch-1 product over a spike row stays O(nnz). a·bᵀ reaches the same
// panel kernels by packing bᵀ into a pooled [k,n] panel first: its
// reduction runs along the contiguous dimension of b, and the packed
// panel turns that into the a·b memory layout without touching the
// per-element reduction order.
//
// Every output element is accumulated by a single accumulator in
// ascending-k order in all of these paths — packed IEEE multiplies and
// adds round lanewise exactly like the scalar instructions — so the
// blocked kernels are bit-identical to the naive reference kernels in
// naive.go, and Serial/Parallel backends remain bit-identical to each
// other (row-block writes are disjoint). batched_test.go pins both
// properties.
const (
	// mrTile × nrTile is the scalar register tile. 2×4 keeps the 8
	// float64 accumulators plus the 2+4 operand temporaries within the
	// 16-register floating-point budget of amd64 — a 4×4 tile spills
	// accumulators to the stack every iteration.
	mrTile = 2
	nrTile = 4
	// asmRows × asmCols is the AVX register tile: 4 rows × two 4-wide
	// ymm accumulators per row, so each row has independent add chains
	// and the loads of b amortise over four rows.
	asmRows = 4
	asmCols = 8
	// ncBlock is the column-panel width: workers sweep the output in
	// panels of at most this many columns so the k×ncBlock slab of b a
	// panel streams stays cache-resident while every row block consumes
	// it.
	ncBlock = 256
)

// MatMul returns the matrix product a·b for 2-D tensors of shapes [m,k]
// and [k,n] on the default backend.
func MatMul(a, b *Tensor) *Tensor { return MatMulOn(nil, a, b) }

// MatMulOn returns a·b computed on be (nil selects the default backend)
// using the cache-blocked micro-kernel.
func MatMulOn(be compute.Backend, a, b *Tensor) *Tensor {
	m, _, n := matShapes("MatMul", a, b, false, false)
	return MatMulInto(be, New(m, n), a, b)
}

// MatMulInto writes a·b over every element of dst [m,n], which may be
// dirty arena memory, and returns dst.
func MatMulInto(be compute.Backend, dst, a, b *Tensor) *Tensor {
	m, k, n := matShapes("MatMul", a, b, false, false)
	checkDst("MatMul", dst, m, n)
	clear(dst.data)
	matMulAccum(backendOr(be), dst.data, a.data, b.data, m, k, n, true)
	return dst
}

// checkDst panics unless dst, the destination an ...Into kernel is about
// to overwrite, has the given shape.
func checkDst(name string, dst *Tensor, shape ...int) {
	if !dst.ShapeEquals(shape...) {
		// Format a copy: shape itself must not escape, or every call
		// would heap-allocate its argument list.
		panic(fmt.Sprintf("tensor: %s destination shape %v, want %v", name, dst.shape, append([]int(nil), shape...)))
	}
}

// matShapes validates the operands of op(a)·op(b) — op the transpose when
// ta/tb is set — and returns the product's dimensions [m,k]·[k,n].
func matShapes(name string, a, b *Tensor, ta, tb bool) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-d operands, got %v x %v", name, a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	if ta {
		m, k = k, m
	}
	k2, n := b.shape[0], b.shape[1]
	if tb {
		k2, n = n, k2
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", name, a.shape, b.shape))
	}
	return m, k, n
}

// skipGate lazily decides whether the zero-skip fast path is sound. The
// skip (spike matrices are mostly zeros) may only fire when b is finite
// everywhere — 0·NaN and 0·Inf must propagate NaN — but scanning b up
// front would tax every dense product, so the allFinite check runs at
// most once per block and only after a zero coefficient is actually
// encountered. The verdict depends only on b, never on partitioning, so
// Serial and Parallel stay bit-identical.
type skipGate struct {
	b       []float64
	checked bool
	ok      bool
}

func (g *skipGate) skip() bool {
	if !g.checked {
		g.checked = true
		g.ok = allFinite(g.b)
	}
	return g.ok
}

// hasZero reports whether s contains an exact zero (either sign).
func hasZero(s []float64) bool {
	for _, v := range s {
		if v == 0 {
			return true
		}
	}
	return false
}

// matMulAccum accumulates a·b into dst (len m*n, caller-zeroed), reading a
// [m,k] and b [k,n]. Row blocks of dst are partitioned across workers.
// allowSkip enables the zero-skip fast path (behind skipGate); pass false
// when a is known dense so zero coefficients are not even tested for.
func matMulAccum(be compute.Backend, dst, a, b []float64, m, k, n int, allowSkip bool) {
	if k == 0 {
		return
	}
	rblocks := (m + asmRows - 1) / asmRows
	be.ParallelFor(rblocks, grainRows(2*k*n*asmRows), func(lo, hi int) {
		gate := skipGate{b: b}
		// Hoist the skip decision out of the micro-kernels: the gate
		// verdict depends only on b, and skipping can only matter on rows
		// that actually contain zeros. The per-(row, k) skip decisions
		// are exactly the naive kernel's.
		doSkip := make([]bool, hi-lo)
		for rb := lo; rb < hi; rb++ {
			i0 := rb * asmRows
			ir := min(asmRows, m-i0)
			doSkip[rb-lo] = allowSkip && scalarWork(ir, n) && hasZero(a[i0*k:(i0+ir)*k]) && gate.skip()
		}
		for j0 := 0; j0 < n; j0 += ncBlock {
			jw := min(ncBlock, n-j0)
			for rb := lo; rb < hi; rb++ {
				i0 := rb * asmRows
				ir := min(asmRows, m-i0)
				skip := doSkip[rb-lo]
				if !useAVX || ir == 1 || jw < asmCols {
					matMulRowsGo(dst, a, b, i0, ir, j0, jw, k, n, skip)
					continue
				}
				groups := jw / asmCols
				jA := groups * asmCols
				i, irr := i0, ir
				if irr >= 4 {
					mmPanel4AVX(&dst[i*n+j0], int64(8*n),
						&a[(i+0)*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k], 8,
						&b[j0], int64(8*n), int64(k), int64(groups))
					i, irr = i+4, irr-4
				}
				if irr >= 2 {
					mmPanel2AVX(&dst[i*n+j0], int64(8*n),
						&a[(i+0)*k], &a[(i+1)*k], 8,
						&b[j0], int64(8*n), int64(k), int64(groups))
					i, irr = i+2, irr-2
				}
				if irr == 1 {
					matMulRowsGo(dst, a, b, i, 1, j0, jA, k, n, skip)
				}
				if jA < jw {
					matMulRowsGo(dst, a, b, i0, ir, j0+jA, jw-jA, k, n, skip)
				}
			}
		}
	})
}

// scalarWork reports whether a row block of ir rows over n columns has
// any element the scalar tile computes rather than the AVX panel — the
// only place a zero-skip verdict is read, so the only blocks worth
// scanning for zeros.
func scalarWork(ir, n int) bool {
	return !useAVX || ir%2 == 1 || n%asmCols != 0
}

// matMulRowsGo covers an ir×jw sub-panel with 2×4 scalar register tiles
// plus a single-row loop for an odd final row.
func matMulRowsGo(dst, a, b []float64, i0, ir, j0, jw, k, n int, doSkip bool) {
	for ; ir >= mrTile; i0, ir = i0+mrTile, ir-mrTile {
		matMulPanel2x4(dst, a, b, i0, j0, jw, k, n, doSkip)
	}
	if ir == 1 {
		arow := a[i0*k : (i0+1)*k]
		orow := dst[i0*n+j0 : i0*n+j0+jw]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 && doSkip {
				continue
			}
			brow := b[p*n+j0:]
			for jj := range orow {
				orow[jj] += av * brow[jj]
			}
		}
	}
}

// matMulPanel2x4 runs the 2×4 scalar micro-kernel over the row pair
// [i0, i0+2) and the column panel [j0, j0+jw). doSkip selects the
// zero-skipping loop body; the caller has already folded the finiteness
// gate into it, so a row's term is skipped iff its a coefficient is zero
// — the same per-element decision the naive kernel makes.
func matMulPanel2x4(dst, a, b []float64, i0, j0, jw, k, n int, doSkip bool) {
	a0 := a[(i0+0)*k : (i0+1)*k]
	a1 := a[(i0+1)*k : (i0+2)*k]
	j := j0
	for ; j+nrTile <= j0+jw; j += nrTile {
		d0 := (*[nrTile]float64)(dst[(i0+0)*n+j:])
		d1 := (*[nrTile]float64)(dst[(i0+1)*n+j:])
		c00, c01, c02, c03 := d0[0], d0[1], d0[2], d0[3]
		c10, c11, c12, c13 := d1[0], d1[1], d1[2], d1[3]
		if doSkip {
			for p := 0; p < k; p++ {
				bv := (*[nrTile]float64)(b[p*n+j:])
				b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
				if av := a0[p]; av != 0 {
					c00 += av * b0
					c01 += av * b1
					c02 += av * b2
					c03 += av * b3
				}
				if av := a1[p]; av != 0 {
					c10 += av * b0
					c11 += av * b1
					c12 += av * b2
					c13 += av * b3
				}
			}
		} else {
			for p := 0; p < k; p++ {
				bv := (*[nrTile]float64)(b[p*n+j:])
				av0, av1 := a0[p], a1[p]
				c00 += av0 * bv[0]
				c01 += av0 * bv[1]
				c02 += av0 * bv[2]
				c03 += av0 * bv[3]
				c10 += av1 * bv[0]
				c11 += av1 * bv[1]
				c12 += av1 * bv[2]
				c13 += av1 * bv[3]
			}
		}
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
	}
	for ; j < j0+jw; j++ {
		// Column fringe: one dst column, same ascending-k accumulation.
		c0, c1 := dst[(i0+0)*n+j], dst[(i0+1)*n+j]
		for p := 0; p < k; p++ {
			bv := b[p*n+j]
			if av := a0[p]; !doSkip || av != 0 {
				c0 += av * bv
			}
			if av := a1[p]; !doSkip || av != 0 {
				c1 += av * bv
			}
		}
		dst[(i0+0)*n+j], dst[(i0+1)*n+j] = c0, c1
	}
}

// MatMulATB returns aᵀ·b for a of shape [k,m] and b of shape [k,n],
// producing [m,n], without materialising the transpose.
func MatMulATB(a, b *Tensor) *Tensor { return MatMulATBOn(nil, a, b) }

// MatMulATBOn returns aᵀ·b computed on be (nil selects the default
// backend) using the cache-blocked micro-kernel.
func MatMulATBOn(be compute.Backend, a, b *Tensor) *Tensor {
	m, _, n := matShapes("MatMulATB", a, b, true, false)
	return MatMulATBInto(be, New(m, n), a, b)
}

// MatMulATBInto writes aᵀ·b over every element of dst [m,n], which may
// be dirty arena memory, and returns dst.
func MatMulATBInto(be compute.Backend, dst, a, b *Tensor) *Tensor {
	m, k, n := matShapes("MatMulATB", a, b, true, false)
	checkDst("MatMulATB", dst, m, n)
	clear(dst.data)
	matMulATBAccum(backendOr(be), dst.data, a.data, b.data, k, m, n, true)
	return dst
}

// matMulATBAccum accumulates aᵀ·b into dst (len m*n, caller-zeroed) for a
// [k,m] and b [k,n]. Row blocks of dst (column blocks of a) are
// partitioned across workers; each element accumulates over p in
// ascending order regardless of partitioning. allowSkip follows the same
// contract as matMulAccum. The AVX micro-kernel is shared with matMulAccum:
// only the stepping of the a pointers differs (down a column of a instead
// of along a row).
func matMulATBAccum(be compute.Backend, dst, a, b []float64, k, m, n int, allowSkip bool) {
	if k == 0 {
		return
	}
	rblocks := (m + asmRows - 1) / asmRows
	be.ParallelFor(rblocks, grainRows(2*k*n*asmRows), func(lo, hi int) {
		gate := skipGate{b: b}
		doSkip := make([]bool, hi-lo)
		for rb := lo; rb < hi; rb++ {
			i0 := rb * asmRows
			ir := min(asmRows, m-i0)
			anyZero := false
			if allowSkip && scalarWork(ir, n) {
			scan:
				for p := 0; p < k; p++ {
					for i := i0; i < i0+ir; i++ {
						if a[p*m+i] == 0 {
							anyZero = true
							break scan
						}
					}
				}
			}
			doSkip[rb-lo] = anyZero && gate.skip()
		}
		for j0 := 0; j0 < n; j0 += ncBlock {
			jw := min(ncBlock, n-j0)
			for rb := lo; rb < hi; rb++ {
				i0 := rb * asmRows
				ir := min(asmRows, m-i0)
				skip := doSkip[rb-lo]
				if !useAVX || ir == 1 || jw < asmCols {
					matMulATBRowsGo(dst, a, b, i0, ir, j0, jw, k, m, n, skip)
					continue
				}
				groups := jw / asmCols
				jA := groups * asmCols
				i, irr := i0, ir
				if irr >= 4 {
					mmPanel4AVX(&dst[i*n+j0], int64(8*n),
						&a[i], &a[i+1], &a[i+2], &a[i+3], int64(8*m),
						&b[j0], int64(8*n), int64(k), int64(groups))
					i, irr = i+4, irr-4
				}
				if irr >= 2 {
					mmPanel2AVX(&dst[i*n+j0], int64(8*n),
						&a[i], &a[i+1], int64(8*m),
						&b[j0], int64(8*n), int64(k), int64(groups))
					i, irr = i+2, irr-2
				}
				if irr == 1 {
					matMulATBRowsGo(dst, a, b, i, 1, j0, jA, k, m, n, skip)
				}
				if jA < jw {
					matMulATBRowsGo(dst, a, b, i0, ir, j0+jA, jw-jA, k, m, n, skip)
				}
			}
		}
	})
}

// matMulATBRowsGo covers an ir×jw sub-panel with 2×4 scalar register
// tiles plus a single-row loop for an odd final row.
func matMulATBRowsGo(dst, a, b []float64, i0, ir, j0, jw, k, m, n int, doSkip bool) {
	for ; ir >= mrTile; i0, ir = i0+mrTile, ir-mrTile {
		matMulATBPanel2x4(dst, a, b, i0, j0, jw, k, m, n, doSkip)
	}
	if ir == 1 {
		orow := dst[i0*n+j0 : i0*n+j0+jw]
		for p := 0; p < k; p++ {
			av := a[p*m+i0]
			if av == 0 && doSkip {
				continue
			}
			brow := b[p*n+j0:]
			for jj := range orow {
				orow[jj] += av * brow[jj]
			}
		}
	}
}

// matMulATBPanel2x4 is the 2×4 scalar micro-kernel of matMulATBAccum: the
// two a coefficients of a step are adjacent in memory (a row-major row of
// a), so both operand loads are unit-stride.
func matMulATBPanel2x4(dst, a, b []float64, i0, j0, jw, k, m, n int, doSkip bool) {
	j := j0
	for ; j+nrTile <= j0+jw; j += nrTile {
		d0 := (*[nrTile]float64)(dst[(i0+0)*n+j:])
		d1 := (*[nrTile]float64)(dst[(i0+1)*n+j:])
		c00, c01, c02, c03 := d0[0], d0[1], d0[2], d0[3]
		c10, c11, c12, c13 := d1[0], d1[1], d1[2], d1[3]
		if doSkip {
			for p := 0; p < k; p++ {
				av := (*[mrTile]float64)(a[p*m+i0:])
				bv := (*[nrTile]float64)(b[p*n+j:])
				b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
				if v := av[0]; v != 0 {
					c00 += v * b0
					c01 += v * b1
					c02 += v * b2
					c03 += v * b3
				}
				if v := av[1]; v != 0 {
					c10 += v * b0
					c11 += v * b1
					c12 += v * b2
					c13 += v * b3
				}
			}
		} else {
			for p := 0; p < k; p++ {
				av := (*[mrTile]float64)(a[p*m+i0:])
				bv := (*[nrTile]float64)(b[p*n+j:])
				v0, v1 := av[0], av[1]
				c00 += v0 * bv[0]
				c01 += v0 * bv[1]
				c02 += v0 * bv[2]
				c03 += v0 * bv[3]
				c10 += v1 * bv[0]
				c11 += v1 * bv[1]
				c12 += v1 * bv[2]
				c13 += v1 * bv[3]
			}
		}
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
	}
	for ; j < j0+jw; j++ {
		c0, c1 := dst[(i0+0)*n+j], dst[(i0+1)*n+j]
		for p := 0; p < k; p++ {
			bv := b[p*n+j]
			if v := a[p*m+i0]; !doSkip || v != 0 {
				c0 += v * bv
			}
			if v := a[p*m+i0+1]; !doSkip || v != 0 {
				c1 += v * bv
			}
		}
		dst[(i0+0)*n+j], dst[(i0+1)*n+j] = c0, c1
	}
}

// MatMulABT returns a·bᵀ for a of shape [m,k] and b of shape [n,k],
// producing [m,n], without materialising the transpose.
func MatMulABT(a, b *Tensor) *Tensor { return MatMulABTOn(nil, a, b) }

// MatMulABTOn returns a·bᵀ computed on be (nil selects the default
// backend) using the cache-blocked micro-kernel.
func MatMulABTOn(be compute.Backend, a, b *Tensor) *Tensor {
	m, _, n := matShapes("MatMulABT", a, b, false, true)
	return MatMulABTInto(be, New(m, n), a, b)
}

// MatMulABTInto writes a·bᵀ over every element of dst [m,n], which may
// be dirty arena memory, and returns dst.
func MatMulABTInto(be compute.Backend, dst, a, b *Tensor) *Tensor {
	m, k, n := matShapes("MatMulABT", a, b, false, true)
	checkDst("MatMulABT", dst, m, n)
	matMulABTInto(backendOr(be), dst.data, a.data, b.data, m, k, n, k)
	return dst
}

// matMulABTInto writes a·bᵀ into dst (len m*n, contents overwritten) for
// a [m,k] and b whose n rows of length k start at multiples of ldb
// (pass ldb = k for a contiguous b). The ldb parameter lets the batched
// conv weight-gradient run directly on one image's column slab of the
// batch-wide im2col matrix without copying it out.
//
// The product runs on the same blocked (and, on amd64, AVX) panel
// kernels as a·b by first packing bᵀ into a pooled [k,n] panel: each
// dst element is then the identical ascending-k dot product the direct
// formulation computes — transposing reorders memory, not the
// reduction — so the result stays bit-identical to the naive reference
// while the k loop vectorises. The packing pass costs k·n moves against
// the product's 2·m·k·n flops; it pays for itself for every m ≥ 1
// because the panel kernels more than double the scalar dot-product
// throughput. The zero-skip path stays off: both operands of the
// weight-gradient product are dense gradients.
func matMulABTInto(be compute.Backend, dst, a, b []float64, m, k, n, ldb int) {
	bt := be.Get(k * n)
	defer be.Put(bt)
	// bt[p*n+j] = b[j*ldb+p]: rows of bt are partitioned across workers.
	be.ParallelFor(k, grainRows(n), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			drow := bt[p*n : (p+1)*n]
			for j := range drow {
				drow[j] = b[j*ldb+p]
			}
		}
	})
	clear(dst[:m*n])
	matMulAccum(be, dst, a, bt, m, k, n, false)
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor { return Transpose2DOn(nil, a) }

// Transpose2DOn returns the transpose computed on be (nil selects the
// default backend), partitioned over output rows.
func Transpose2DOn(be compute.Backend, a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D on %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	backendOr(be).ParallelFor(n, grainRows(m), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			orow := out.data[j*m : (j+1)*m]
			for i := 0; i < m; i++ {
				orow[i] = a.data[i*n+j]
			}
		}
	})
	return out
}

// AddRowVector returns a with the 1-D vector v (length = a columns) added
// to every row of the 2-D tensor a. Used for bias broadcasting.
func AddRowVector(a, v *Tensor) *Tensor { return AddRowVectorOn(nil, a, v) }

// AddRowVectorOn broadcasts v over a's rows on be (nil selects the
// default backend).
func AddRowVectorOn(be compute.Backend, a, v *Tensor) *Tensor {
	return AddRowVectorInto(be, New(a.shape...), a, v)
}

// AddRowVectorInto writes a + v (v broadcast over rows) over every
// element of dst, which may be dirty arena memory, and returns dst.
func AddRowVectorInto(be compute.Backend, dst, a, v *Tensor) *Tensor {
	if a.Dims() != 2 || v.Dims() != 1 || v.shape[0] != a.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector shape mismatch %v + %v", a.shape, v.shape))
	}
	m, n := a.shape[0], a.shape[1]
	checkDst("AddRowVector", dst, m, n)
	backendOr(be).ParallelFor(m, grainRows(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				dst.data[i*n+j] = a.data[i*n+j] + v.data[j]
			}
		}
	})
	return dst
}

// SumRows returns the column sums of a 2-D tensor as a 1-D vector. It is
// the gradient counterpart of AddRowVector.
func SumRows(a *Tensor) *Tensor { return SumRowsOn(nil, a) }

// SumRowsOn returns the column sums computed on be (nil selects the
// default backend). Columns are partitioned across workers; each column
// accumulates over rows in ascending order regardless of partitioning.
func SumRowsOn(be compute.Backend, a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SumRows on %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n)
	backendOr(be).ParallelFor(n, grainRows(m), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += a.data[i*n+j]
			}
			out.data[j] = s
		}
	})
	return out
}
