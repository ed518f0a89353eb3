package tensor

import (
	"fmt"

	"snnsec/internal/compute"
)

// The a·b and aᵀ·b kernels are one strided product: aᵀ·b is a·b with a
// read down its columns instead of along its rows. The output is cut
// into row blocks of asmRows rows, partitioned across workers via
// Backend.ParallelFor, and each worker walks its rows in ncBlock-column
// panels (panel-major, so the slab of b a panel streams is reused by
// every row block the worker owns before moving on). Inside a panel the
// 8-column groups run on the AVX micro-kernels when the CPU has them —
// a quad of rows on mmPanel4AVX (4 rows × 8 columns of accumulators live
// in ymm registers across the whole k loop), a pair on mmPanel2AVX, a
// single row (a batch-1 product, or the last row when m mod 4 is 1 or 3)
// on mmRow1AVX — whatever zeros the rows hold. Only the column fringe
// (n mod 8) and builds without AVX run the 2×4 scalar register tile (one
// scalar row for an odd row). No path tests a coefficient for zero: a
// term 0·b with b finite is ±0, and adding ±0 to an accumulator seeded
// with +0 never changes its bits, so the dense product is the
// zero-skipping one bit for bit — and a NaN or Inf in b propagates into
// the product by construction. a·bᵀ reaches the same kernels by packing
// bᵀ into a pooled [k,n] panel first: its reduction runs along the
// contiguous dimension of b, and the packed panel turns that into the
// a·b memory layout without touching the per-element reduction order.
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
	matMulAccum(backendOr(be), dst.data, a.data, b.data, m, k, n)
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

// matMulAccum accumulates a·b into dst (len m*n, caller-zeroed), reading a
// [m,k] and b [k,n].
func matMulAccum(be compute.Backend, dst, a, b []float64, m, k, n int) {
	matMulStrided(be, dst, a, b, m, k, n, false)
}

// matMulATBAccum accumulates aᵀ·b into dst (len m*n, caller-zeroed) for a
// [k,m] and b [k,n]: the a·b product with a read down its columns.
func matMulATBAccum(be compute.Backend, dst, a, b []float64, k, m, n int) {
	matMulStrided(be, dst, a, b, m, k, n, true)
}

// matMulStrided accumulates op(a)·b into dst (len m*n, caller-zeroed) for
// b [k,n], where op(a) is a [m,k], or with at the transpose of a [k,m].
// Row blocks of dst are partitioned across workers; each element
// accumulates over p in ascending order regardless of partitioning.
func matMulStrided(be compute.Backend, dst, a, b []float64, m, k, n int, at bool) {
	if k == 0 {
		return
	}
	rblocks := (m + asmRows - 1) / asmRows
	// The closure captures one flag rather than the two strides it
	// derives: one more word would move it up an allocation size class.
	be.ParallelFor(rblocks, grainRows(2*k*n*asmRows), func(lo, hi int) {
		ars, aps := k, 1 // op(a)[i][p] = a[i*ars+p*aps]
		if at {
			ars, aps = 1, m
		}
		for j0 := 0; j0 < n; j0 += ncBlock {
			jw := min(ncBlock, n-j0)
			jA := 0 // columns [j0, j0+jA) run on the AVX kernels
			if useAVX {
				jA = jw / asmCols * asmCols
			}
			for rb := lo; rb < hi; rb++ {
				i0 := rb * asmRows
				ir := min(asmRows, m-i0)
				if jA > 0 {
					matMulRowsAVX(dst, a, b, i0, ir, j0, jA/asmCols, k, n, ars, aps)
				}
				if jA < jw {
					matMulRowsGo(dst, a, b, i0, ir, j0+jA, jw-jA, k, n, ars, aps)
				}
			}
		}
	})
}

// matMulRowsAVX covers the ir rows from i (ir ≤ asmRows) over groups
// 8-column groups from j0 with the AVX kernels: a quad, then a pair,
// then a single row.
func matMulRowsAVX(dst, a, b []float64, i, ir, j0, groups, k, n, ars, aps int) {
	rs, as := int64(8*n), int64(8*aps) // byte strides: a dst or b row, one step of p in a
	if ir >= 4 {
		mmPanel4AVX(&dst[i*n+j0], rs, &a[i*ars], &a[(i+1)*ars], &a[(i+2)*ars], &a[(i+3)*ars], as,
			&b[j0], rs, int64(k), int64(groups))
		i, ir = i+4, ir-4
	}
	if ir >= 2 {
		mmPanel2AVX(&dst[i*n+j0], rs, &a[i*ars], &a[(i+1)*ars], as, &b[j0], rs, int64(k), int64(groups))
		i, ir = i+2, ir-2
	}
	if ir == 1 {
		mmRow1AVX(&dst[i*n+j0], &a[i*ars], as, &b[j0], rs, int64(k), int64(groups))
	}
}

// matMulRowsGo covers an ir×jw sub-panel with 2×4 scalar register tiles
// plus a single-row loop for an odd final row.
func matMulRowsGo(dst, a, b []float64, i0, ir, j0, jw, k, n, ars, aps int) {
	for ; ir >= mrTile; i0, ir = i0+mrTile, ir-mrTile {
		matMulPanel2x4(dst, a, b, i0, j0, jw, k, n, ars, aps)
	}
	if ir == 1 {
		orow := dst[i0*n+j0 : i0*n+j0+jw]
		for p := 0; p < k; p++ {
			av := a[i0*ars+p*aps]
			brow := b[p*n+j0:]
			for jj := range orow {
				orow[jj] += av * brow[jj]
			}
		}
	}
}

// matMulPanel2x4 runs the 2×4 scalar micro-kernel over the row pair
// [i0, i0+2) and the column panel [j0, j0+jw).
func matMulPanel2x4(dst, a, b []float64, i0, j0, jw, k, n, ars, aps int) {
	r0, r1 := i0*ars, (i0+1)*ars // op(a)[i0][0] and op(a)[i0+1][0]
	j := j0
	for ; j+nrTile <= j0+jw; j += nrTile {
		d0 := (*[nrTile]float64)(dst[(i0+0)*n+j:])
		d1 := (*[nrTile]float64)(dst[(i0+1)*n+j:])
		c00, c01, c02, c03 := d0[0], d0[1], d0[2], d0[3]
		c10, c11, c12, c13 := d1[0], d1[1], d1[2], d1[3]
		for p := 0; p < k; p++ {
			bv := (*[nrTile]float64)(b[p*n+j:])
			av0, av1 := a[r0+p*aps], a[r1+p*aps]
			c00 += av0 * bv[0]
			c01 += av0 * bv[1]
			c02 += av0 * bv[2]
			c03 += av0 * bv[3]
			c10 += av1 * bv[0]
			c11 += av1 * bv[1]
			c12 += av1 * bv[2]
			c13 += av1 * bv[3]
		}
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
	}
	for ; j < j0+jw; j++ {
		// Column fringe: one dst column, same ascending-k accumulation.
		c0, c1 := dst[(i0+0)*n+j], dst[(i0+1)*n+j]
		for p := 0; p < k; p++ {
			bv := b[p*n+j]
			c0 += a[r0+p*aps] * bv
			c1 += a[r1+p*aps] * bv
		}
		dst[(i0+0)*n+j], dst[(i0+1)*n+j] = c0, c1
	}
}

// MatMulATBInto writes aᵀ·b over every element of dst [m,n], which may
// be dirty arena memory, and returns dst.
func MatMulATBInto(be compute.Backend, dst, a, b *Tensor) *Tensor {
	m, k, n := matShapes("MatMulATB", a, b, true, false)
	checkDst("MatMulATB", dst, m, n)
	clear(dst.data)
	matMulATBAccum(backendOr(be), dst.data, a.data, b.data, k, m, n)
	return dst
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
// throughput.
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
	matMulAccum(be, dst, a, bt, m, k, n)
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
