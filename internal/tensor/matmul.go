package tensor

import (
	"fmt"

	"snnsec/internal/compute"
)

// The a·b and aᵀ·b kernels are one strided product (matMulStrided): aᵀ·b
// is a·b with a read down its columns instead of along its rows. The
// output is cut into row blocks of asmRows rows, partitioned across
// workers via Backend.ParallelFor, and each worker runs its rows on the
// convolution's tap-table panel kernels (tapPanel in conv.go) with
// tables that are arithmetic progressions: the a-rows i·ars, the taps
// aoff[p] = p·aps and boff[p] = p·n, and one lane group per 8 columns,
// the last clamped to n − 8 (it rewrites the bits of the group before
// it). The worker walks the groups in ncBlock-column panels, so the
// slab of b a panel streams is reused by every row the worker owns
// before it moves on. A quad of rows runs on tapPanel4AVX (its group
// pairs on tapPanel4x2AVX512 on AVX-512F hosts), a pair on
// tapPanel2AVX; a lone row — a batch-1 product, or the last row when
// m mod 4 is 1 or 3 — runs on mmRow1AVX, which steps by strides and
// needs no table. Builds without AVX run every row on tapPanelGo.
// Products narrower than 8 columns run on b copied into a zero-padded
// 8-column panel.
//
// Every output element is one accumulator: started at +0, added to in
// ascending k and stored once, so dst is never read and may be dirty. No
// path tests a coefficient for zero: a term 0·b with b finite is ±0, and
// adding ±0 to an accumulator seeded with +0 never changes its bits, so
// the dense product is the zero-skipping one bit for bit — and a NaN or
// Inf in b propagates into the product by construction. Packed IEEE
// multiplies and adds round lanewise exactly like the scalar
// instructions, so the blocked kernels are bit-identical to the naive
// reference kernels in naive.go, and Serial/Parallel backends remain
// bit-identical to each other (row-block writes are disjoint).
// batched_test.go pins both properties, on the AVX kernels and on the Go
// bodies. a·bᵀ reaches the same kernels by packing bᵀ into a pooled
// [k,n] panel first: its reduction runs along the contiguous dimension
// of b, and the packed panel turns that into the a·b memory layout
// without touching the per-element reduction order.
const (
	// mrTile × nrTile is tapPanelGo's register tile. 2×4 keeps the 8
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
	matMulStrided(backendOr(be), dst.data, a.data, b.data, m, k, n, false)
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

// matMulStrided writes op(a)·b over dst (len m*n) for b [k,n], where
// op(a) is a [m,k], or with at the transpose of a [k,m]. Row blocks of
// dst are partitioned across workers; each element accumulates over p in
// ascending order regardless of partitioning.
func matMulStrided(be compute.Backend, dst, a, b []float64, m, k, n int, at bool) {
	if n < asmCols {
		// The lane groups are 8 wide: run on b copied into a zero-padded
		// [k, 8] panel and copy the first n lanes of each row out. Lane j
		// of a row meets the terms column j would, so the padding lanes
		// change no bit of it.
		bp, dp := be.Get(k*asmCols), be.Get(m*asmCols)
		defer be.Put(bp)
		defer be.Put(dp)
		clear(bp)
		for p := 0; p < k; p++ {
			copy(bp[p*asmCols:], b[p*n:(p+1)*n])
		}
		matMulStrided(be, dp, a, bp, m, k, asmCols, at)
		for i := 0; i < m; i++ {
			copy(dst[i*n:(i+1)*n], dp[i*asmCols:])
		}
		return
	}
	// The closure only forwards to matMulRows, which derives the strides
	// and tables itself: every word it captured beyond the call's
	// arguments could move it up an allocation size class.
	be.ParallelFor((m+asmRows-1)/asmRows, grainRows(2*k*n*asmRows), func(lo, hi int) {
		matMulRows(dst, a, b, m, k, n, at, lo, hi)
	})
}

// matMulRows writes the rows of row blocks [lo, hi) of matMulStrided's
// product (n ≥ 8). On AVX builds a lone last row goes to mmRow1AVX — its
// 8-column groups, then the group clamped to n − 8 — and the rest to
// tapPanel over tables built here from the uint64 pool, one call per
// ncBlock-column panel. A block range that is only a lone row builds no
// table.
func matMulRows(dst, a, b []float64, m, k, n int, at bool, lo, hi int) {
	ars, aps := k, 1 // op(a)[i][p] = a[i*ars+p*aps]
	if at {
		ars, aps = 1, m
	}
	i0, i1 := lo*asmRows, min(hi*asmRows, m)
	if useAVX && (i1-i0)%2 == 1 {
		i1--
		ar, as8, bs := &a[i1*ars], int64(8*aps), int64(8*n)
		mmRow1AVX(&dst[i1*n], ar, as8, &b[0], bs, int64(k), int64(n/asmCols))
		if n%asmCols != 0 {
			mmRow1AVX(&dst[i1*n+n-asmCols], ar, as8, &b[n-asmCols], bs, int64(k), 1)
		}
		if i0 == i1 {
			return
		}
	}
	nr, ng := i1-i0, (n+asmCols-1)/asmCols
	tab := compute.GetUint64(nr + 2*k + ng)
	defer compute.PutUint64(tab)
	rows, aoff, boff, groups := tab[:nr], tab[nr:nr+k], tab[nr+k:nr+2*k], tab[nr+2*k:]
	for r := range rows {
		rows[r] = uint64((i0 + r) * ars)
	}
	for p := range aoff {
		aoff[p], boff[p] = uint64(p*aps), uint64(p*n)
	}
	for g := range groups {
		groups[g] = uint64(min(g*asmCols, n-asmCols))
	}
	for g0 := 0; g0 < ng; g0 += ncBlock / asmCols {
		panel := groups[g0:min(g0+ncBlock/asmCols, ng)]
		tapPanel(dst[i0*n:], n, a, rows, aoff, b, boff, panel, panel)
	}
}

// MatMulATBInto writes aᵀ·b over every element of dst [m,n], which may
// be dirty arena memory, and returns dst.
func MatMulATBInto(be compute.Backend, dst, a, b *Tensor) *Tensor {
	m, k, n := matShapes("MatMulATB", a, b, true, false)
	checkDst("MatMulATB", dst, m, n)
	matMulStrided(backendOr(be), dst.data, a.data, b.data, m, k, n, true)
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
	matMulStrided(be, dst.data, a.data, bt, m, k, n, false)
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

// SumRowsInto writes the column sums of a over every element of out,
// which may be dirty arena memory, on be (nil selects the default
// backend) and returns out. Columns are partitioned across workers; each
// column accumulates over rows in ascending order from +0 regardless of
// partitioning.
func SumRowsInto(be compute.Backend, out, a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SumRows on %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	checkDst("SumRows", out, n)
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
