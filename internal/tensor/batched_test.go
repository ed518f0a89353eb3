package tensor

import (
	"fmt"
	"math"
	"testing"

	"snnsec/internal/compute"
)

// These tests pin the two PR-level kernel claims bit-for-bit:
//
//   - the cache-blocked matmul micro-kernels produce exactly the floats
//     of the naive reference kernels in naive.go (same ascending-k
//     accumulation per element);
//   - the batched padded-plane conv pipeline produces exactly the
//     floats of the per-image im2col reference path (forward, input
//     grad, weight grad, bias grad);
//
// across odd shapes (tile fringes in every dimension), stride/padding
// combinations, and the Serial and Parallel backends — and, through
// eachKernelPath, on the AVX kernels and on the Go bodies both.

// blockedBackends covers Serial, a width smaller than most tile counts,
// and a width larger than any tested dimension.
var blockedBackends = []compute.Backend{
	compute.Serial{},
	compute.NewParallel(3),
	compute.NewParallel(16),
}

// sprinkleZeros zeroes every third element, so some rows of some tiles
// hold zero coefficients and others do not.
func sprinkleZeros(t *Tensor) {
	d := t.Data()
	for i := 0; i < len(d); i += 3 {
		d[i] = 0
	}
}

func TestBlockedMatMulMatchesNaive(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := NewRand(19, 41)
		ser := compute.Serial{}
		// Shapes straddle the row-quad, 8-column group and ncBlock
		// boundaries: exact multiples, n < 8 (the zero-padded panel), the
		// last group clamped to n − 8, single rows/columns, and a matrix
		// wider than one column panel. The second line reaches the one-row
		// AVX kernel: batch-1 products (the stream's two fully connected
		// layers, one past four column groups, one wider than ncBlock) and
		// the last row when m mod 4 is 1 or 3. The third line puts a lone
		// row on a clamped group: batch 1, past ncBlock behind a quad, and
		// behind a pair.
		shapes := []struct{ m, k, n int }{
			{1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {5, 7, 9}, {8, 16, 8},
			{17, 25, 13}, {6, 25, 150}, {33, 65, 129}, {12, 9, 260},
			{1, 192, 48}, {1, 48, 10}, {5, 25, 40}, {3, 9, 16}, {1, 300, 264},
			{1, 5, 13}, {5, 7, 300}, {3, 4, 9},
			{6, 25, 8}, {12, 9, 16}, {16, 5, 24}, {6, 7, 32}, {12, 6, 40}, {16, 9, 33},
		}
		for _, s := range shapes {
			// Rows with and without zero coefficients must both reproduce
			// the naive floats exactly.
			for _, dense := range []bool{false, true} {
				a := RandN(r, 0, 1, s.m, s.k)
				b := RandN(r, 0, 1, s.k, s.n)
				if !dense {
					sprinkleZeros(a)
				}
				want := MatMulNaiveOn(ser, a, b)
				wantATB := New(s.m, s.n)
				at := transpose2D(a)
				matMulATBNaiveInto(ser, wantATB.data, at.data, b.data, s.k, s.m, s.n)
				wantABT := New(s.m, s.n)
				bt := transpose2D(b)
				matMulABTNaiveInto(ser, wantABT.data, a.data, bt.data, s.m, s.k, s.n)
				for _, be := range blockedBackends {
					assertIdentical(t, "blocked MatMul", want, MatMulOn(be, a, b))
					assertIdentical(t, "blocked MatMulATB", wantATB, matMulATB(be, at, b))
					assertIdentical(t, "blocked MatMulABT", wantABT, matMulABT(be, a, bt))
					// Every kernel stores each output once and reads
					// nothing of dst: a NaN-filled destination must come
					// out as the product.
					assertSameBits(t, "blocked MatMulInto over NaN", want, MatMulInto(be, Full(math.NaN(), s.m, s.n), a, b))
					assertSameBits(t, "blocked MatMulATBInto over NaN", wantATB, MatMulATBInto(be, Full(math.NaN(), s.m, s.n), at, b))
					assertSameBits(t, "blocked MatMulABTInto over NaN", wantABT, MatMulABTInto(be, Full(math.NaN(), s.m, s.n), a, bt))
				}
			}
		}
	})
}

// TestTapPanelTiles pins tapPanel against the sum it documents on every
// tier: row counts 1–9 reach every mix of quads, a pair and the odd Go
// row, and group counts 1–9 the zmm quad's group pairs with and without
// the odd last group it leaves to the ymm kernel. gd and gb are
// permutations of disjoint, misaligned offsets, so a group stored at
// another's place or read off another's lanes shows, and dst starts NaN,
// so a lane never stored shows.
func TestTapPanelTiles(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := NewRand(127, 131)
		for nr := 1; nr <= 9; nr++ {
			for ng := 1; ng <= 9; ng++ {
				k := 1 + (nr*ng)%7
				rows, aoff, boff := make([]uint64, nr), make([]uint64, k), make([]uint64, k)
				for i := range rows {
					rows[i] = uint64(3*k*i + i%3)
				}
				bstride := ng*asmCols + 5
				for p := range aoff {
					aoff[p], boff[p] = uint64(3*p), uint64(p*bstride)
				}
				gd, gb := make([]uint64, ng), make([]uint64, ng)
				dperm, bperm := r.Perm(ng), r.Perm(ng)
				for g := range gd {
					gd[g], gb[g] = uint64(dperm[g]*asmCols+1), uint64(bperm[g]*asmCols+2)
				}
				a := RandN(r, 0, 1, 3*k*nr+2).data
				b := RandN(r, 0, 1, k*bstride).data
				ldd := ng*asmCols + 3
				want, got := Full(math.NaN(), nr, ldd), Full(math.NaN(), nr, ldd)
				for i := range rows {
					for g := range gd {
						for c := uint64(0); c < asmCols; c++ {
							var acc float64
							for p := range aoff {
								acc += float64(a[rows[i]+aoff[p]] * b[gb[g]+boff[p]+c])
							}
							want.data[i*ldd+int(gd[g]+c)] = acc
						}
					}
				}
				tapPanel(got.data, ldd, a, rows, aoff, b, boff, gd, gb)
				assertSameBits(t, fmt.Sprintf("tapPanel %d rows × %d groups", nr, ng), want, got)
			}
		}
	})
}

// TestBlockedMatMulMixedRowBlocks zeroes half of every row of one row
// block, so adjacent row blocks of one product differ in their zeros,
// and still agree with the naive kernel.
func TestBlockedMatMulMixedRowBlocks(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := NewRand(31, 53)
		ser := compute.Serial{}
		a := RandN(r, 0, 1, 11, 9)
		b := RandN(r, 0, 1, 9, 21)
		for i := 4; i < 8; i++ { // second row block gets the zeros
			for j := 0; j < 9; j += 2 {
				a.Set(0, i, j)
			}
		}
		want := MatMulNaiveOn(ser, a, b)
		for _, be := range blockedBackends {
			assertIdentical(t, "mixed row blocks", want, MatMulOn(be, a, b))
		}
	})
}

// TestBlockedMatMulNaNPropagation pins that no path drops a term: a NaN
// or Inf in b must poison the product even where a's coefficient is zero
// (0·NaN and 0·Inf are NaN), on the zero-padded panel (n = 2), in the
// clamped last group (n = 10) and on every kernel — the one-row kernel
// (m = 1 and m = 5), the four-row panel, and the wide four-group pass
// (n = 40).
func TestBlockedMatMulNaNPropagation(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		for _, m := range []int{1, 4, 5} {
			for _, n := range []int{2, 8, 10, 40} {
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					// a is all zeros, with −0 in row 0 on odd coefficients.
					a := New(m, 3)
					a.Set(math.Copysign(0, -1), 0, 1)
					for _, col := range []int{0, n - 1, n / 2} {
						// One non-finite b entry per column tested, in the
						// middle row of b so both neighbours are finite.
						b := RandN(NewRand(uint64(m), uint64(n)), 0, 1, 3, n)
						b.Set(bad, 1, col)
						for _, be := range blockedBackends {
							out := MatMulOn(be, a, b)
							outATB := matMulATB(be, transpose2D(a), b)
							for i := 0; i < m; i++ {
								for j := 0; j < n; j++ {
									if got, gotATB := out.At(i, j), outATB.At(i, j); (j == col) != math.IsNaN(got) || (j == col) != math.IsNaN(gotATB) {
										t.Fatalf("m=%d n=%d b[1][%d]=%v: out[%d][%d] = %v (MatMul), %v (MatMulATB)", m, n, col, bad, i, j, got, gotATB)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// convCases stresses the batched pipeline's slab arithmetic: batch sizes
// around the worker count, odd spatial sizes, strides > 1, zero and
// asymmetric-looking paddings, and multi-channel inputs.
var convCases = []struct {
	n, c, h, w, f, k int
	p                ConvParams
}{
	{1, 1, 5, 5, 1, 3, ConvParams{Stride: 1, Padding: 1}},
	{2, 3, 7, 9, 4, 3, ConvParams{Stride: 2, Padding: 1}},
	{3, 1, 16, 16, 6, 5, ConvParams{Stride: 1, Padding: 0}},
	{5, 2, 8, 8, 3, 5, ConvParams{Stride: 1, Padding: 2}},
	{7, 2, 9, 7, 5, 3, ConvParams{Stride: 3, Padding: 2}},
	{16, 1, 11, 11, 6, 5, ConvParams{Stride: 2, Padding: 2}},
	// Kernel wider than the padded-row overlap on some taps (kw > w+1
	// with this padding): whole taps read nothing but the border.
	{2, 1, 1, 1, 2, 5, ConvParams{Stride: 1, Padding: 2}},
	{2, 2, 3, 2, 3, 5, ConvParams{Stride: 1, Padding: 2}},
}

func TestBatchedConvMatchesPerImage(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := NewRand(23, 43)
		ser := compute.Serial{}
		for _, cs := range convCases {
			x := RandN(r, 0, 1, cs.n, cs.c, cs.h, cs.w)
			wt := RandN(r, 0, 1, cs.f, cs.c, cs.k, cs.k)
			bias := RandN(r, 0, 1, cs.f)
			oh := cs.p.ConvOutSize(cs.h, cs.k)
			ow := cs.p.ConvOutSize(cs.w, cs.k)
			gout := RandN(r, 0, 1, cs.n, cs.f, oh, ow)

			want := Conv2DPerImageOn(ser, x, wt, bias, cs.p)
			wantNoBias := Conv2DPerImageOn(ser, x, wt, nil, cs.p)
			wdx, wdw, wdb := Conv2DBackwardPerImageOn(ser, x, wt, gout, cs.p, true)
			for _, be := range blockedBackends {
				assertIdentical(t, "batched Conv2D", want, Conv2DOn(be, x, wt, bias, cs.p))
				assertIdentical(t, "batched Conv2D no-bias", wantNoBias, Conv2DOn(be, x, wt, nil, cs.p))
				dx, dw, db := Conv2DBackwardOn(be, x, wt, gout, cs.p, true)
				assertIdentical(t, "batched Conv2DBackward dx", wdx, dx)
				assertIdentical(t, "batched Conv2DBackward dw", wdw, dw)
				assertIdentical(t, "batched Conv2DBackward db", wdb, db)
				dxn, dwn, dbn := Conv2DBackwardOn(be, x, wt, gout, cs.p, false)
				assertIdentical(t, "batched Conv2DBackward dx no-bias", wdx, dxn)
				assertIdentical(t, "batched Conv2DBackward dw no-bias", wdw, dwn)
				if dbn != nil {
					t.Fatalf("batched Conv2DBackward returned dbias without hasBias")
				}
			}
		}
	})
}

// poisonPool fills every pooled buffer with NaN on its way out: a kernel
// that reads a scratch element it has not written computes NaN where the
// plain backend computes a number.
type poisonPool struct{ compute.Backend }

func (p poisonPool) Get(n int) []float64 {
	buf := p.Backend.Get(n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf
}

// paddedConvCases are the geometries of the tap-table forward: OH·Wp a
// multiple of the panel's 8 columns and not, a kernel wider than the
// image, no padding and padding ≥ the kernel, non-square kernels, every
// filter-count fringe (4-row panels, the 2-row panel, the Go row), several
// channel counts, batch 1 and 5. The group layouts: at stride 1 with
// OW ≥ 8 the groups store straight into the output — OW = 8 exactly (one
// group a row), OW = 9, 12 and 28 (the last group clamped to OW − 8,
// overlapping the one before), the tiny preset's conv1 and both paper
// layers among them — while OW < 8 and every stride > 1 go through the
// scratch rows, read off at every s-th column.
var paddedConvCases = []struct {
	n, c, h, w, f, kh, kw int
	p                     ConvParams
}{
	{1, 1, 16, 16, 6, 5, 5, ConvParams{Stride: 1, Padding: 2}}, // OH·Wp = 320
	{5, 1, 16, 16, 6, 5, 5, ConvParams{Stride: 1, Padding: 2}}, // enough work per image to partition
	{5, 3, 7, 9, 5, 3, 3, ConvParams{Stride: 1, Padding: 1}},   // OH·Wp = 77, OW = 9
	{1, 1, 4, 2, 2, 3, 5, ConvParams{Stride: 1, Padding: 2}},   // KW > W
	{5, 6, 8, 8, 12, 3, 3, ConvParams{Stride: 1, Padding: 0}},
	{1, 3, 5, 5, 7, 3, 3, ConvParams{Stride: 1, Padding: 3}}, // padding ≥ K
	{5, 1, 4, 6, 3, 2, 3, ConvParams{Stride: 1, Padding: 4}},
	{1, 6, 6, 5, 1, 1, 4, ConvParams{Stride: 1, Padding: 0}},
	{5, 1, 9, 9, 2, 4, 1, ConvParams{Stride: 1, Padding: 1}},
	{1, 3, 8, 8, 12, 3, 3, ConvParams{Stride: 1, Padding: 1}}, // OW = 8 exactly
	{5, 3, 9, 7, 5, 3, 3, ConvParams{Stride: 2, Padding: 1}},
	{1, 6, 8, 8, 6, 3, 2, ConvParams{Stride: 2, Padding: 0}},
	{2, 1, 12, 12, 6, 5, 5, ConvParams{Stride: 1, Padding: 2}},  // tiny conv1: OW = 12, last group at 4
	{1, 1, 28, 28, 6, 5, 5, ConvParams{Stride: 1, Padding: 2}},  // paper conv1: OW = 28
	{1, 6, 14, 14, 16, 3, 3, ConvParams{Stride: 1, Padding: 1}}, // paper conv2: OW = 14
	{2, 6, 6, 6, 12, 3, 3, ConvParams{Stride: 1, Padding: 1}},   // tiny conv2: OW = 6, scratch rows
	{2, 2, 19, 20, 6, 3, 3, ConvParams{Stride: 2, Padding: 1}},  // stride 2, OW = 10, scratch rows 24 wide
	// One to five groups in all, for the zmm passes and their leftovers:
	// F = 6, 12 and 16 filters over output rows of OW = 8, and of OW = 10
	// and 12 with the last group of each row clamped to OW − 8.
	{1, 2, 1, 8, 6, 1, 1, ConvParams{Stride: 1, Padding: 0}},   // 1 group
	{2, 1, 2, 12, 12, 3, 3, ConvParams{Stride: 1, Padding: 1}}, // 4 groups, clamped
	{1, 3, 3, 8, 16, 3, 3, ConvParams{Stride: 1, Padding: 1}},  // 3 groups
	{2, 2, 1, 12, 6, 1, 3, ConvParams{Stride: 1, Padding: 0}},  // 2 groups, clamped
	{1, 2, 5, 8, 12, 3, 3, ConvParams{Stride: 1, Padding: 1}},  // 5 groups
}

// TestPaddedConvForwardMatchesPerImage pins the column-free forward
// convolution bit for bit against the per-image im2col reference: into
// NaN-filled destinations, on a pool that hands out NaN-filled scratch,
// with and without a bias, on Serial and Parallel(2), and with
// non-finite weights and NaN / −0 inputs — the explicit border zeros
// must meet them exactly as im2col's did (0·NaN and 0·Inf are NaN, a −0
// product leaves a +0 sum alone).
func TestPaddedConvForwardMatchesPerImage(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := NewRand(71, 73)
		ser := compute.Serial{}
		backends := []compute.Backend{poisonPool{ser}, poisonPool{compute.NewParallel(2)}}
		// The seeded NaN is the one a border zero makes of an Inf tap, so every
		// NaN in a product carries one payload: which of two different payloads
		// a sum keeps is the instruction encoding's choice, not the kernel's.
		nan := 0 * math.Inf(1)
		for ci, cs := range paddedConvCases {
			x := RandN(r, 0, 1, cs.n, cs.c, cs.h, cs.w)
			wt := RandN(r, 0, 1, cs.f, cs.c, cs.kh, cs.kw)
			bias := RandN(r, 0, 1, cs.f)
			xOdd := x.Clone() // a NaN at the first corner, a −0 at the last, zeros between
			sprinkleZeros(xOdd)
			xOdd.Data()[0] = nan
			xOdd.Data()[xOdd.Len()-1] = math.Copysign(0, -1)
			wOdd := wt.Clone() // NaN, +Inf and −Inf taps
			wOdd.Data()[0] = nan
			wOdd.Data()[wOdd.Len()/2] = math.Inf(1)
			wOdd.Data()[wOdd.Len()-1] = math.Inf(-1)
			oh, ow := cs.p.ConvOutSize(cs.h, cs.kh), cs.p.ConvOutSize(cs.w, cs.kw)
			for vi, v := range []struct{ x, w, b *Tensor }{
				{x, wt, bias}, {x, wt, nil}, {xOdd, wt, bias}, {x, wOdd, nil}, {xOdd, wOdd, bias},
			} {
				want := Conv2DPerImageOn(ser, v.x, v.w, v.b, cs.p)
				for bi, be := range backends {
					got := Conv2DInto(be, Full(math.NaN(), cs.n, cs.f, oh, ow), v.x, v.w, v.b, cs.p)
					assertSameBits(t, fmt.Sprintf("padded conv case %d variant %d backend %d", ci, vi, bi), want, got)
				}
			}
		}
	})
}

// weightGradCases add to paddedConvCases the geometries the column-free
// weight gradient's lanes and tap blocks turn on: every F in {1, 3, 4, 6,
// 8, 9, 10, 12, 16}, either side of the panel's 8 lanes, against tap
// counts C·KH·KW of every residue mod 4 (the 4-tap panel, the 2-tap
// remainder, the one-row kernel for an odd count), a layer with more
// than 256 taps, and a-rows stepped 2 and 3 floats at strides 2 and 3.
var weightGradCases = []struct {
	n, c, h, w, f, kh, kw int
	p                     ConvParams
}{
	{2, 1, 6, 6, 1, 3, 3, ConvParams{Stride: 1, Padding: 1}},    // 9 taps
	{3, 2, 7, 5, 3, 3, 3, ConvParams{Stride: 1, Padding: 1}},    // 18
	{2, 4, 5, 6, 4, 2, 2, ConvParams{Stride: 1, Padding: 0}},    // 16
	{2, 3, 6, 6, 6, 1, 1, ConvParams{Stride: 1, Padding: 0}},    // 3
	{3, 1, 7, 7, 8, 3, 5, ConvParams{Stride: 1, Padding: 2}},    // 15
	{2, 1, 8, 8, 9, 5, 5, ConvParams{Stride: 1, Padding: 2}},    // 25
	{2, 2, 6, 5, 12, 2, 3, ConvParams{Stride: 1, Padding: 1}},   // 12
	{2, 6, 5, 5, 16, 3, 3, ConvParams{Stride: 1, Padding: 1}},   // 54
	{2, 12, 6, 6, 9, 5, 5, ConvParams{Stride: 1, Padding: 2}},   // 300
	{2, 3, 9, 8, 9, 3, 3, ConvParams{Stride: 2, Padding: 1}},    // 27, stride 2
	{3, 1, 11, 10, 10, 3, 5, ConvParams{Stride: 3, Padding: 2}}, // 15, stride 3
	{2, 2, 5, 5, 24, 3, 3, ConvParams{Stride: 1, Padding: 1}},   // 18, 3 lane groups
	{2, 1, 6, 6, 40, 3, 3, ConvParams{Stride: 1, Padding: 1}},   // 9, 5 lane groups
}

// TestPaddedWeightGradMatchesPerImage pins the column-free weight
// gradient — and the input and bias gradients beside it — bit for bit
// against the per-image im2col reference: over the padded-conv and the
// weight-gradient geometries, strided ones included, for every
// non-empty subset of {dx, dW, db} written into
// NaN-filled destinations on a pool that hands out NaN-filled scratch,
// Serial and Parallel(2). Inputs and upstream gradients carry NaN, ±Inf,
// −0 and denormals, meeting the border zeros and each other, and binary
// inputs run at 0, 2, 25 and 100 % density.
func TestPaddedWeightGradMatchesPerImage(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := NewRand(107, 109)
		rng := spikeRand(113)
		ser := compute.Serial{}
		backends := []compute.Backend{poisonPool{ser}, poisonPool{compute.NewParallel(2)}}
		nan := 0 * math.Inf(1) // one payload for every NaN, as in the forward test
		odd := func(t *Tensor) *Tensor {
			t = t.Clone()
			sprinkleZeros(t)
			for i, v := range []float64{nan, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -5e-324} {
				t.Data()[(i*11)%t.Len()] = v
			}
			return t
		}
		cases := append(paddedConvCases[:len(paddedConvCases):len(paddedConvCases)], weightGradCases...)
		for ci, cs := range cases {
			oh, ow := cs.p.ConvOutSize(cs.h, cs.kh), cs.p.ConvOutSize(cs.w, cs.kw)
			x := RandN(r, 0, 1, cs.n, cs.c, cs.h, cs.w)
			wt := RandN(r, 0, 1, cs.f, cs.c, cs.kh, cs.kw)
			gout := RandN(r, 0, 1, cs.n, cs.f, oh, ow)
			variants := []struct{ x, g *Tensor }{{x, gout}, {odd(x), gout}, {x, odd(gout)}, {odd(x), odd(gout)}}
			for _, d := range []float64{0, 0.02, 0.25, 1} {
				variants = append(variants, struct{ x, g *Tensor }{binaryTensor(rng, d, cs.n, cs.c, cs.h, cs.w), gout})
			}
			variants = append(variants, struct{ x, g *Tensor }{binaryTensor(rng, 0.25, cs.n, cs.c, cs.h, cs.w), odd(gout)})
			for vi, v := range variants {
				wdx, wdw, wdb := Conv2DBackwardPerImageOn(ser, v.x, wt, v.g, cs.p, true)
				want := []*Tensor{wdx, wdw, wdb}
				for bi, be := range backends {
					for wanted := 1; wanted < 8; wanted++ {
						var dsts [3]*Tensor
						for i, w := range want {
							if wanted&(1<<i) != 0 {
								dsts[i] = Full(math.NaN(), w.Shape()...)
							}
						}
						Conv2DGradsInto(be, dsts[0], dsts[1], dsts[2], v.x, wt, v.g, cs.p)
						for i, w := range want {
							if dsts[i] != nil {
								name := fmt.Sprintf("weight grad case %d variant %d backend %d wanted %03b %s", ci, vi, bi, wanted, []string{"dx", "dw", "db"}[i])
								assertSameBits(t, name, w, dsts[i])
							}
						}
					}
				}
			}
		}
	})
}

// TestCol2ImKernelMatchesPerImage pins the input gradient — whose col2im
// scatter adds each stride-1 tap as one AVX rectangle — bit for bit
// against the per-image reference, which scatters with the Go loop: over
// the padded-conv geometries (the two strided ones stay on the Go loop on
// both sides), into NaN-filled destinations on NaN-filled scratch, Serial
// and Parallel(2), alone and with the weight gradient wanted, and with
// NaN, ±Inf, −0 and denormal upstream gradients meeting non-finite
// weights. The column matrix itself is scattered both ways too, into a
// destination that already holds numbers.
func TestCol2ImKernelMatchesPerImage(t *testing.T) {
	r := NewRand(89, 97)
	ser := compute.Serial{}
	backends := []compute.Backend{poisonPool{ser}, poisonPool{compute.NewParallel(2)}}
	nan := 0 * math.Inf(1) // one payload for every NaN, as in the forward test
	for ci, cs := range paddedConvCases {
		oh, ow := cs.p.ConvOutSize(cs.h, cs.kh), cs.p.ConvOutSize(cs.w, cs.kw)
		x := RandN(r, 0, 1, cs.n, cs.c, cs.h, cs.w)
		wt := RandN(r, 0, 1, cs.f, cs.c, cs.kh, cs.kw)
		gout := RandN(r, 0, 1, cs.n, cs.f, oh, ow)
		gOdd := gout.Clone()
		sprinkleZeros(gOdd)
		for i, v := range []float64{nan, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324} {
			gOdd.Data()[(i*7)%gOdd.Len()] = v
		}
		wOdd := wt.Clone()
		wOdd.Data()[0] = nan
		wOdd.Data()[wOdd.Len()/2] = math.Inf(1)
		wOdd.Data()[wOdd.Len()-1] = math.Inf(-1)
		for vi, v := range []struct{ w, g *Tensor }{{wt, gout}, {wt, gOdd}, {wOdd, gout}, {wOdd, gOdd}} {
			want, _, _ := Conv2DBackwardPerImageOn(ser, x, v.w, v.g, cs.p, false)
			for bi, be := range backends {
				name := fmt.Sprintf("col2im case %d variant %d backend %d", ci, vi, bi)
				dx := Full(math.NaN(), cs.n, cs.c, cs.h, cs.w)
				Conv2DGradsInto(be, dx, nil, nil, x, v.w, v.g, cs.p)
				assertSameBits(t, name+" dx alone", want, dx)
				dx = Full(math.NaN(), cs.n, cs.c, cs.h, cs.w)
				Conv2DGradsInto(be, dx, Full(math.NaN(), cs.f, cs.c, cs.kh, cs.kw), nil, x, v.w, v.g, cs.p)
				assertSameBits(t, name+" dx with dweight", want, dx)
			}
		}
		col := RandN(r, 0, 1, cs.c*cs.kh*cs.kw, oh*ow)
		col.Data()[0], col.Data()[col.Len()-1] = nan, math.Copysign(0, -1)
		want := RandN(r, 0, 1, cs.c, cs.h, cs.w)
		got := want.Clone()
		col2imAddInto(ser, want.data, col.data, oh*ow, cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.p, false)
		col2imAddInto(ser, got.data, col.data, oh*ow, cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.p, true)
		assertSameBits(t, fmt.Sprintf("col2im case %d scatter", ci), want, got)
	}
}

// TestAddRectAVX checks the rectangle add on every width around its
// eight-, four- and one-column steps, with strides wider than the
// rectangle: the rectangle gets dst + src, everything around it stays.
func TestAddRectAVX(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX kernels in this build")
	}
	r := NewRand(101, 103)
	const dstW, srcW = 23, 29
	for rows := 0; rows <= 3; rows++ {
		for cols := 0; cols <= 21; cols++ {
			src := RandN(r, 0, 1, 4, srcW)
			want := RandN(r, 0, 1, 4, dstW)
			got := want.Clone()
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					want.data[i*dstW+1+j] += src.data[i*srcW+2+j]
				}
			}
			addRectAVX(&got.data[1], 8*dstW, &src.data[2], 8*srcW, int64(rows), int64(cols))
			assertSameBits(t, fmt.Sprintf("addRectAVX %dx%d", rows, cols), want, got)
		}
	}
}

// TestMatMulPanelKeepsRowsWithZeros pins that rows holding zeros run the
// dense kernels like any other: quads, pairs and single rows, the
// zero-padded panel (n = 7) and the clamped last group (n = 9), and
// every mix of them in one product — with a finite b and with a
// non-finite one — equals the naive kernel bit for bit.
func TestMatMulPanelKeepsRowsWithZeros(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := NewRand(79, 83)
		ser := compute.Serial{}
		const k = 13
		for _, m := range []int{1, 2, 3, 4, 5, 9} {
			for _, n := range []int{7, 8, 9, 48} {
				a := RandN(r, 0, 1, m, k)
				sprinkleZeros(a)
				at := transpose2D(a)
				finite := RandN(r, 0, 1, k, n)
				nonFinite := finite.Clone()
				nonFinite.Data()[0] = math.NaN()
				nonFinite.Data()[nonFinite.Len()-1] = math.Inf(1)
				for bi, b := range []*Tensor{finite, nonFinite} {
					want := MatMulNaiveOn(ser, a, b)
					for _, be := range blockedBackends {
						name := fmt.Sprintf("m=%d n=%d b %d", m, n, bi)
						assertSameBits(t, "MatMul "+name, want, MatMulOn(be, a, b))
						assertSameBits(t, "MatMulATB "+name, want, matMulATB(be, at, b))
					}
				}
			}
		}
	})
}
