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
// every row block the worker owns before moving on). Every panel goes
// through panelAccum, the matmul panel dispatcher (the convolution has
// its own, tapPanel in conv.go): its a-rows are offsets into a and every
// stride is a parameter, so rows of a and columns of aᵀ read in place.
// Its 8-column groups run on the AVX micro-kernels when the CPU has
// them — a quad of rows on mmPanel4AVX (4
// rows × 8 columns of accumulators live in ymm registers across the
// whole k loop), a pair on mmPanel2AVX, a single row (a batch-1 product,
// or the last row when m mod 4 is 1 or 3) on mmRow1AVX — whatever zeros
// the rows hold. The column fringe (n mod 8) and builds without AVX run
// the 2×4 scalar register tile (one scalar row for an odd row). No path
// tests a coefficient for zero: a term 0·b with b finite is ±0, and
// adding ±0 to an accumulator seeded with +0 never changes its bits, so
// the dense product is the zero-skipping one bit for bit — and a NaN or
// Inf in b propagates into the product by construction. a·bᵀ reaches
// the same kernels by packing bᵀ into a pooled [k,n] panel first: its
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
// properties, on the AVX kernels and on the Go bodies.
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
		var rows [asmRows]uint64
		for j0 := 0; j0 < n; j0 += ncBlock {
			jw := min(ncBlock, n-j0)
			for rb := lo; rb < hi; rb++ {
				i0 := rb * asmRows
				ir := min(asmRows, m-i0)
				for r := range ir {
					rows[r] = uint64((i0 + r) * ars)
				}
				panelAccum(dst[i0*n+j0:], n, a, rows[:ir], aps, b[j0:], n, k, jw)
			}
		}
	})
}

// panelAccum is the matmul panel dispatcher: it accumulates op(a)·b into
// the len(rows) rows of dst,
//
//	dst[r·ldd + j] += Σ_{p<k} a[rows[r] + p·as] · b[p·ldb + j]   for j in [0, n),
//
// where rows holds the offset of each a-row within a and every stride
// is in floats (k ≥ 1). The 8-column groups run on the AVX kernels when
// the build has them — rows four to a panel, then a pair, then a single
// row; the column fringe (n mod 8), and every column on builds without
// AVX, run panelGo. Each dst element is one accumulator, loaded from
// dst and added to in ascending p on every path.
func panelAccum(dst []float64, ldd int, a []float64, rows []uint64, as int, b []float64, ldb, k, n int) {
	jA := 0 // columns [0, jA) run on the AVX kernels
	if useAVX {
		jA = n / asmCols * asmCols
	}
	if jA > 0 {
		rs, as8, bs := int64(8*ldd), int64(8*as), int64(8*ldb) // byte strides
		kk, groups := int64(k), int64(jA/asmCols)
		r := 0
		for ; r+asmRows <= len(rows); r += asmRows {
			mmPanel4AVX(&dst[r*ldd], rs, &a[rows[r]], &a[rows[r+1]], &a[rows[r+2]], &a[rows[r+3]], as8, &b[0], bs, kk, groups)
		}
		if r+2 <= len(rows) {
			mmPanel2AVX(&dst[r*ldd], rs, &a[rows[r]], &a[rows[r+1]], as8, &b[0], bs, kk, groups)
			r += 2
		}
		if r < len(rows) {
			mmRow1AVX(&dst[r*ldd], &a[rows[r]], as8, &b[0], bs, kk, groups)
		}
	}
	if jA < n {
		panelGo(dst[jA:], ldd, a, rows, as, b[jA:], ldb, k, n-jA)
	}
}

// panelGo is panelAccum in Go: row pairs on the 2×4 scalar register
// tile, an odd last row on a one-row loop.
func panelGo(dst []float64, ldd int, a []float64, rows []uint64, as int, b []float64, ldb, k, n int) {
	r := 0
	for ; r+mrTile <= len(rows); r += mrTile {
		matMulPanel2x4(dst[r*ldd:], ldd, a, int(rows[r]), int(rows[r+1]), as, b, ldb, k, n)
	}
	if r < len(rows) {
		orow, r0 := dst[r*ldd:][:n], int(rows[r])
		for p := 0; p < k; p++ {
			av := a[r0+p*as]
			brow := b[p*ldb:][:n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// matMulPanel2x4 runs the 2×4 scalar micro-kernel over dst rows 0 and 1
// (row stride ldd) and columns [0, n), with the a-rows at r0 and r1.
func matMulPanel2x4(dst []float64, ldd int, a []float64, r0, r1, as int, b []float64, ldb, k, n int) {
	j := 0
	for ; j+nrTile <= n; j += nrTile {
		d0 := (*[nrTile]float64)(dst[j:])
		d1 := (*[nrTile]float64)(dst[ldd+j:])
		c00, c01, c02, c03 := d0[0], d0[1], d0[2], d0[3]
		c10, c11, c12, c13 := d1[0], d1[1], d1[2], d1[3]
		for p := 0; p < k; p++ {
			bv := (*[nrTile]float64)(b[p*ldb+j:])
			av0, av1 := a[r0+p*as], a[r1+p*as]
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
	for ; j < n; j++ {
		// Column fringe: one dst column, same ascending-k accumulation.
		c0, c1 := dst[j], dst[ldd+j]
		for p := 0; p < k; p++ {
			bv := b[p*ldb+j]
			c0 += a[r0+p*as] * bv
			c1 += a[r1+p*as] * bv
		}
		dst[j], dst[ldd+j] = c0, c1
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
//
// The product runs on the same panel kernels as a·b by first packing bᵀ
// into a pooled [k,n] panel: each dst element is then the identical
// ascending-k dot product the direct formulation computes — transposing
// reorders memory, not the reduction — so the result stays
// bit-identical to the naive reference while the k loop vectorises. The
// packing pass costs k·n moves against the product's 2·m·k·n flops; it
// pays for itself for every m ≥ 1 because the panel kernels more than
// double the scalar dot-product throughput.
func MatMulABTInto(be compute.Backend, dst, a, b *Tensor) *Tensor {
	m, k, n := matShapes("MatMulABT", a, b, false, true)
	checkDst("MatMulABT", dst, m, n)
	be = backendOr(be)
	bt := be.Get(k * n)
	defer be.Put(bt)
	// bt[p*n+j] = b[j*k+p]: rows of bt are partitioned across workers.
	be.ParallelFor(k, grainRows(n), func(lo, hi int) {
		bd := b.data
		for p := lo; p < hi; p++ {
			drow := bt[p*n : (p+1)*n]
			for j := range drow {
				drow[j] = bd[j*k+p]
			}
		}
	})
	clear(dst.data)
	matMulAccum(be, dst.data, a.data, bt, m, k, n)
	return dst
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
