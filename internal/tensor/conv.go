package tensor

import (
	"fmt"

	"snnsec/internal/compute"
)

// Convolution is batched: each conv product — forward, input gradient,
// weight gradient — covers the whole batch [N,C,H,W] and partitions it
// across workers, and all scratch comes from the backend's buffer pool.
//
// The forward and the weight gradient never build a column matrix. Over
// a zero-bordered copy xpad [C, Hp·Wp] of one image, row q = (ci, ki,
// kj) of the stride-1 im2col matrix is plane ci shifted by ki·Wp + kj,
// so both products read the planes through tables of offsets — the
// Indirect Convolution Algorithm (Dukhan, arXiv:1907.02129) — on one
// table-driven panel kernel pair (tapPanel):
//
//	out[r·ldd + gd[g] + c] = Σ_{p<k} a[rows[r] + aoff[p]] · b[gb[g] + boff[p] + c]   c in [0, 8)
//
// Each output is one accumulator, started at +0 in a register, added to
// in ascending p and stored once. In the forward (conv2DPaddedInto) the
// a-rows are the filters, p walks the taps in ascending (ci, ki, kj) and
// an 8-lane group is 8 outputs of one output row; in the weight gradient
// (convWeightGradPadded) the a-rows are the taps, p walks the output
// positions in ascending (oy, ox) and the lanes are filters. Either way
// every output meets the terms the column product gives it, in the same
// order, including the explicit border zeros im2col writes, so the
// floats — 0·NaN and 0·Inf included — are the column pipeline's.
//
// The input gradient is one Wᵀ·G matmul over the batch scattered back by
// col2im. The per-image im2col path is retained in naive.go as the
// bit-identical reference.

// ConvParams describes a 2-D convolution: kernel size, stride and symmetric
// zero padding.
type ConvParams struct {
	Stride  int
	Padding int
}

// ConvOutSize returns the output spatial size for an input of size in with
// kernel k under p.
func (p ConvParams) ConvOutSize(in, k int) int {
	return (in+2*p.Padding-k)/p.Stride + 1
}

func (p ConvParams) validate() {
	if p.Stride <= 0 {
		panic(fmt.Sprintf("tensor: conv stride must be positive, got %d", p.Stride))
	}
	if p.Padding < 0 {
		panic(fmt.Sprintf("tensor: conv padding must be non-negative, got %d", p.Padding))
	}
}

// convShapes validates a conv call and returns the unpacked dimensions.
// bias may be nil (then unchecked).
func convShapes(name string, x, weight, bias *Tensor, p ConvParams) (n, c, h, w, f, kh, kw int) {
	p.validate()
	if x.Dims() != 4 || weight.Dims() != 4 {
		panic(fmt.Sprintf("tensor: %s needs 4-d x and weight, got %v, %v", name, x.shape, weight.shape))
	}
	n, c, h, w = x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	var cw int
	f, cw, kh, kw = weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if c != cw {
		panic(fmt.Sprintf("tensor: %s channel mismatch x=%v weight=%v", name, x.shape, weight.shape))
	}
	if bias != nil && !bias.ShapeEquals(f) {
		panic(fmt.Sprintf("tensor: %s bias shape %v, want [%d]", name, bias.shape, f))
	}
	if p.ConvOutSize(h, kh) <= 0 || p.ConvOutSize(w, kw) <= 0 {
		panic(fmt.Sprintf("tensor: %s non-positive output for input %v kernel %dx%d", name, x.shape, kh, kw))
	}
	return n, c, h, w, f, kh, kw
}

func checkGoutShape(name string, gout *Tensor, n, f, oh, ow int) {
	if !gout.ShapeEquals(n, f, oh, ow) {
		panic(fmt.Sprintf("tensor: %s gout shape %v, want [%d %d %d %d]", name, gout.shape, n, f, oh, ow))
	}
}

// col2imAddInto accumulates a column matrix into the image gradient dst
// (len c*h*w). The matrix's c*kh*kw rows of length oh*ow start at
// multiples of ldcol within col, so one image's column slab of the
// batch-wide matrix can be scattered in place (pass ldcol = n*oh*ow and
// col offset i*oh*ow); for a contiguous single-image matrix pass
// ldcol = oh*ow. It is a plain serial loop — its callers run it once
// per image of a batch, inside their own parallel loop over images —
// over channels in order, and within a channel the taps ascend (ki, kj),
// so every dst element meets its addends in one order. With kernel set
// (production passes true, the per-image reference in naive.go false) a
// stride-1 tap is one addRectAVX call on builds with AVX; the Go loop is
// the reference it is pinned to and serves every other stride and build.
func col2imAddInto(dst, col []float64, ldcol int, c, h, w, kh, kw int, p ConvParams, kernel bool) {
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	for ci := range c {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				r := (ci*kh+ki)*kw + kj
				src := col[r*ldcol : r*ldcol+oh*ow]
				// The valid ox range for this kj is one interval:
				// 0 ≤ ox·stride + kj − padding < w. Hoisting it out
				// of the inner loop removes the per-tap bounds
				// tests; the adds themselves keep their (oy, ox)
				// order, so the accumulation is unchanged.
				oxlo := 0
				if num := p.Padding - kj; num > 0 {
					oxlo = (num + p.Stride - 1) / p.Stride
				}
				oxhi := 0
				if num := w - 1 + p.Padding - kj; num >= 0 {
					oxhi = min(ow, num/p.Stride+1)
				}
				if kernel && useAVX && p.Stride == 1 {
					// At stride 1 the valid oy range is an interval
					// too and the taps are consecutive pixels, so the
					// whole tap is one rectangle add. A dst element
					// meets a tap once, so the order inside the
					// rectangle is free; across taps it is unchanged.
					oylo, oyhi := max(0, p.Padding-ki), min(oh, h+p.Padding-ki)
					if oylo < oyhi && oxlo < oxhi {
						addRectAVX(&dst[(ci*h+oylo+ki-p.Padding)*w+oxlo+kj-p.Padding], int64(8*w),
							&src[oylo*ow+oxlo], int64(8*ow), int64(oyhi-oylo), int64(oxhi-oxlo))
					}
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*p.Stride + ki - p.Padding
					if iy < 0 || iy >= h {
						continue
					}
					dstRow := dst[(ci*h+iy)*w : (ci*h+iy+1)*w]
					base := oy * ow
					ix := oxlo*p.Stride + kj - p.Padding
					for ox := oxlo; ox < oxhi; ox++ {
						dstRow[ix] += src[base+ox]
						ix += p.Stride
					}
				}
			}
		}
	}
}

// Conv2DOn computes a batched 2-D convolution (cross-correlation, as in
// deep learning frameworks) on be (nil selects the default backend): x
// is [N,C,H,W], weight is [F,C,KH,KW], bias is [F] or nil, and the
// result is a fresh [N,F,OH,OW] written by Conv2DInto.
func Conv2DOn(be compute.Backend, x, weight, bias *Tensor, p ConvParams) *Tensor {
	n, _, h, w, f, kh, kw := convShapes("Conv2D", x, weight, bias, p)
	return Conv2DInto(be, New(n, f, p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)), x, weight, bias, p)
}

// Conv2DInto writes the convolution over every element of dst
// [N,F,OH,OW], which may be dirty arena memory, and returns dst: the
// tap-table product (conv2DPaddedInto), bit-identical to the per-image
// reference Conv2DPerImageOn.
func Conv2DInto(be compute.Backend, dst, x, weight, bias *Tensor, p ConvParams) *Tensor {
	n, _, h, w, f, kh, kw := convShapes("Conv2D", x, weight, bias, p)
	checkDst("Conv2D", dst, n, f, p.ConvOutSize(h, kh), p.ConvOutSize(w, kw))
	conv2DPaddedInto(backendOr(be), dst, x, weight, bias, p)
	return dst
}

// conv2DPaddedInto is the forward product without a column matrix (see
// the package comment above), images partitioned across workers. The
// closure only forwards to convForwardImages: everything it would
// otherwise capture is derived there, so it stays one small allocation
// per call.
func conv2DPaddedInto(be compute.Backend, dst, x, weight, bias *Tensor, p ConvParams) {
	oh, ow := p.ConvOutSize(x.shape[2], weight.shape[2]), p.ConvOutSize(x.shape[3], weight.shape[3])
	be.ParallelFor(x.shape[0], grainRows(2*weight.Len()*oh*ow), func(lo, hi int) {
		convForwardImages(be, dst, x, weight, bias, p, lo, hi)
	})
}

// convForwardImages runs the forward for images [lo, hi). Per image it
// copies the planes into the interior of xpad — a pooled [C, Hp·Wp]
// buffer whose zero border is cleared once per block, plus 8 floats of
// slack the last group reads past the final plane — and makes one
// tapPanel call with a-rows the filters (aoff[p] = p) and boff the tap
// offsets. An 8-lane group covers 8 stride-1 columns of one output row:
//
//   - At stride 1 with OW ≥ 8 the groups store straight into dst [F,
//     OH·OW], gd = oy·OW + x0 and gb = oy·Wp + x0 for x0 = 0, 8, …, the
//     last clamped to OW − 8 (it rewrites the bits of the group before
//     it). The bias is added afterwards, in place.
//   - Otherwise they fill a pooled scratch row of w8 = ⌈(OW−1)·s+1⌉₈
//     stride-1 columns per output row, gb = oy·s·Wp + x0, and readOutInto
//     reads every s-th column out. Columns past (OW−1)·s hold products
//     of taps that wrapped into the next image row; nothing reads them.
func convForwardImages(be compute.Backend, dst, x, weight, bias *Tensor, p ConvParams, lo, hi int) {
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	f, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
	s, hp, wp := p.Stride, h+2*p.Padding, w+2*p.Padding
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	ckk, ohow := c*kh*kw, oh*ow
	direct := s == 1 && ow >= asmCols
	w8 := ((ow-1)*s + asmCols) / asmCols * asmCols
	perRow := w8 / asmCols
	if direct {
		perRow = (ow + asmCols - 1) / asmCols
	}
	groups := oh * perRow
	tab := compute.GetUint64(f + 2*ckk + 2*groups)
	defer compute.PutUint64(tab)
	rows, aoff, boff := tab[:f], tab[f:f+ckk], tab[f+ckk:f+2*ckk]
	gd, gb := tab[f+2*ckk:][:groups], tab[f+2*ckk+groups:][:groups]
	for fi := range rows {
		rows[fi] = uint64(fi * ckk)
	}
	for q := range aoff {
		aoff[q] = uint64(q)
	}
	paddedTapOffsets(boff, c, hp, wp, kh, kw)
	for oy := 0; oy < oh; oy++ {
		for j := 0; j < perRow; j++ {
			g, x0 := oy*perRow+j, j*asmCols
			if direct {
				x0 = min(x0, ow-asmCols)
				gd[g] = uint64(oy*ow + x0)
			} else {
				gd[g] = uint64(oy*w8 + x0)
			}
			gb[g] = uint64(oy*s*wp + x0)
		}
	}
	xpad := be.Get(c*hp*wp + asmCols)
	defer be.Put(xpad)
	clear(xpad)
	var prod []float64
	if !direct {
		prod = be.Get(f * oh * w8)
		defer be.Put(prod)
	}
	for i := lo; i < hi; i++ {
		padPlanesInto(xpad, x.data[i*c*h*w:], c, h, w, p.Padding)
		out := dst.data[i*f*ohow:][:f*ohow]
		if !direct {
			tapPanel(prod, oh*w8, weight.data, rows, aoff, xpad, boff, gd, gb)
			readOutInto(out, prod, bias, f, oh, ow, w8, s)
			continue
		}
		tapPanel(out, ohow, weight.data, rows, aoff, xpad, boff, gd, gb)
		if bias != nil {
			for fi, bv := range bias.data {
				plane := out[fi*ohow:][:ohow]
				for j := range plane {
					plane[j] += bv
				}
			}
		}
	}
}

// readOutInto writes one image's [f, oh, ow] outputs over out, read off
// the scratch rows prod [f, oh, ldp]: out[fi][oy][ox] = prod[fi][oy][ox·s]
// (+ bias[fi]).
func readOutInto(out, prod []float64, bias *Tensor, f, oh, ow, ldp, s int) {
	for fi := 0; fi < f; fi++ {
		for oy := 0; oy < oh; oy++ {
			dst, src := out[(fi*oh+oy)*ow:][:ow], prod[(fi*oh+oy)*ldp:]
			for j := range dst {
				dst[j] = src[j*s]
				if bias != nil {
					dst[j] += bias.data[fi]
				}
			}
		}
	}
}

// tapPanel is the tap-table panel dispatcher behind the matmuls
// (matMulRows) and both convolution products. For every a-row r and
// 8-lane group g it stores
//
//	dst[r·ldd + gd[g] + c] = Σ_{p<k} a[rows[r] + aoff[p]] · b[gb[g] + boff[p] + c]   for c in [0, 8),
//
// with k = len(aoff) = len(boff) ≥ 1 and len(gd) = len(gb), every offset
// in floats. Each output is one accumulator, started at +0, added to in
// ascending p and stored once; nothing is read from dst. The rows run
// four at a time, then a pair, on the AVX kernels when the build has
// them; an odd last row, and every row on builds without AVX, run
// tapPanelGo. On AVX-512 hosts a quad runs its groups two at a time on
// the zmm kernel, which holds eight accumulators as tapPanel4AVX does;
// an odd last group, a pair and a lone group stay on the ymm kernels,
// where a zmm tile would have fewer than eight add chains. The caller
// guarantees every offset is in bounds: the AVX kernels check none.
func tapPanel(dst []float64, ldd int, a []float64, rows, aoff []uint64, b []float64, boff, gd, gb []uint64) {
	r := 0
	if useAVX {
		rs, k, ng := int64(8*ldd), int64(len(aoff)), len(gd)
		z := 0 // the groups a quad runs on zmm
		if useAVX512 {
			z = ng &^ 1
		}
		for ; r+asmRows <= len(rows); r += asmRows {
			if z > 0 {
				tapPanel4x2AVX512(&dst[r*ldd], rs, &a[0], &rows[r], &aoff[0], &b[0], &boff[0], k, &gd[0], &gb[0], int64(z))
			}
			if z < ng {
				tapPanel4AVX(&dst[r*ldd], rs, &a[rows[r]], &a[rows[r+1]], &a[rows[r+2]], &a[rows[r+3]], &aoff[0], &b[0], &boff[0], k, &gd[z], &gb[z], int64(ng-z))
			}
		}
		if r+2 <= len(rows) {
			tapPanel2AVX(&dst[r*ldd], rs, &a[rows[r]], &a[rows[r+1]], &aoff[0], &b[0], &boff[0], k, &gd[0], &gb[0], int64(ng))
			r += 2
		}
	}
	if r < len(rows) {
		tapPanelGo(dst[r*ldd:], ldd, a, rows[r:], aoff, b, boff, gd, gb)
	}
}

// tapPanelGo is tapPanel in Go: row pairs on a 2×4 register tile (each
// group in two halves), an odd last row on a 1×8 one.
func tapPanelGo(dst []float64, ldd int, a []float64, rows, aoff []uint64, b []float64, boff, gd, gb []uint64) {
	r := 0
	for ; r+mrTile <= len(rows); r += mrTile {
		a0, a1 := a[rows[r]:], a[rows[r+1]:]
		for g, d := range gd {
			for h := uint64(0); h < asmCols; h += nrTile {
				bg := b[gb[g]+h:]
				var c00, c01, c02, c03, c10, c11, c12, c13 float64
				for p, ao := range aoff {
					bv := (*[nrTile]float64)(bg[boff[p]:])
					av0, av1 := a0[ao], a1[ao]
					c00 += av0 * bv[0]
					c01 += av0 * bv[1]
					c02 += av0 * bv[2]
					c03 += av0 * bv[3]
					c10 += av1 * bv[0]
					c11 += av1 * bv[1]
					c12 += av1 * bv[2]
					c13 += av1 * bv[3]
				}
				*(*[nrTile]float64)(dst[r*ldd+int(d+h):]) = [nrTile]float64{c00, c01, c02, c03}
				*(*[nrTile]float64)(dst[(r+1)*ldd+int(d+h):]) = [nrTile]float64{c10, c11, c12, c13}
			}
		}
	}
	if r < len(rows) {
		a0 := a[rows[r]:]
		for g, d := range gd {
			bg := b[gb[g]:]
			var c0, c1, c2, c3, c4, c5, c6, c7 float64
			for p, ao := range aoff {
				bv := (*[asmCols]float64)(bg[boff[p]:])
				av := a0[ao]
				c0 += av * bv[0]
				c1 += av * bv[1]
				c2 += av * bv[2]
				c3 += av * bv[3]
				c4 += av * bv[4]
				c5 += av * bv[5]
				c6 += av * bv[6]
				c7 += av * bv[7]
			}
			*(*[asmCols]float64)(dst[r*ldd+int(d):]) = [asmCols]float64{c0, c1, c2, c3, c4, c5, c6, c7}
		}
	}
}

// padPlanesInto copies the c planes [h, w] of img into the interiors of
// the zero-bordered planes [h+2·pad, w+2·pad] laid end to end in xpad,
// leaving the border as it is.
func padPlanesInto(xpad, img []float64, c, h, w, pad int) {
	hp, wp := h+2*pad, w+2*pad
	for ci := 0; ci < c; ci++ {
		for iy := 0; iy < h; iy++ {
			copy(xpad[ci*hp*wp+(iy+pad)*wp+pad:][:w], img[(ci*h+iy)*w:])
		}
	}
}

// Conv2DBackwardOn is Conv2DGradsInto over freshly allocated tensors for
// every gradient (nil selects the default backend).
func Conv2DBackwardOn(be compute.Backend, x, weight, gout *Tensor, p ConvParams, hasBias bool) (dx, dweight, dbias *Tensor) {
	if hasBias {
		dbias = New(weight.shape[0])
	}
	dx, dweight = New(x.shape...), New(weight.shape...)
	Conv2DGradsInto(be, dx, dweight, dbias, x, weight, gout, p)
	return dx, dweight, dbias
}

// Conv2DGradsInto writes the gradients of a Conv2D call over every
// element of the destinations that are not nil — dx like x, dweight like
// weight, dbias [F], any of which may be dirty arena memory. A nil
// destination is a gradient nobody reads: the kernels skip the weight
// gradient's planes and per-image partials when it is not wanted, and
// the Wᵀ·G product and col2im scatter when the input gradient is not,
// and each gradient that is computed is bit-identical whatever else was
// asked for, and to the per-image reference Conv2DBackwardPerImageOn.
//
// The input gradient is one blocked Wᵀ·G matmul over the whole batch
// scattered back image by image (disjoint dx rows; the input is never
// read). The weight gradient is one pooled [f, c·kh·kw] partial per
// image, read off zero-bordered planes (convWeightGradPadded) and merged
// in image order after the parallel phase, so the result is independent
// of the partitioning. The bias gradient is the serial per-filter sum of
// gout. Every destination is cleared and then accumulated into, so it
// holds what a zeroed accumulator would.
func Conv2DGradsInto(be compute.Backend, dx, dweight, dbias, x, weight, gout *Tensor, p ConvParams) {
	const name = "Conv2DBackward"
	n, c, h, w, f, kh, kw := convShapes(name, x, weight, nil, p)
	be = backendOr(be)
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	checkGoutShape(name, gout, n, f, oh, ow)
	ohow := oh * ow
	ckk := c * kh * kw
	cols := n * ohow
	chw := c * h * w
	var dcol []float64
	if dx != nil {
		checkDst(name, dx, n, c, h, w)
		clear(dx.data)
		// gbig is gout reordered to the column-matrix layout [f, n*ohow] so
		// the input gradient is a single aᵀ·b product over the whole batch.
		gbig := be.Get(f * cols)
		be.ParallelFor(n*f, grainRows(ohow), func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				i, fi := idx/f, idx%f
				copy(gbig[fi*cols+i*ohow:fi*cols+(i+1)*ohow], gout.data[idx*ohow:(idx+1)*ohow])
			}
		})
		// dcol = Wᵀ · G for the whole batch, scattered back into dx below.
		dcol = be.Get(ckk * cols)
		defer be.Put(dcol)
		matMulStrided(be, dcol, weight.data, gbig, ckk, f, cols, true)
		be.Put(gbig)
	}
	var partials [][]float64
	var tab []uint64
	if dweight != nil {
		checkDst(name, dweight, weight.shape...)
		partials = make([][]float64, n)
		tab = weightGradTables(c, h, w, f, kh, kw, p)
		defer compute.PutUint64(tab)
	}
	if dx != nil || partials != nil {
		be.ParallelFor(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if dx != nil {
					col2imAddInto(dx.data[i*chw:(i+1)*chw], dcol[i*ohow:], cols, c, h, w, kh, kw, p, true)
				}
				if partials != nil {
					partials[i] = convWeightGradPadded(be, x, gout, tab, i, f, kh, kw, p)
				}
			}
		})
	}
	if partials != nil {
		clear(dweight.data)
		for _, dw := range partials {
			for j, v := range dw {
				dweight.data[j] += v
			}
			be.Put(dw)
		}
	}
	if dbias != nil {
		checkDst(name, dbias, f)
		clear(dbias.data)
		convBiasGradInto(dbias.data, gout.data, n, f, ohow)
	}
}

// paddedTapOffsets writes into taps the offset of each tap q = (ci, ki,
// kj) within c zero-bordered planes [hp, wp] laid end to end — the start
// of column-matrix row q's first output row.
func paddedTapOffsets(taps []uint64, c, hp, wp, kh, kw int) {
	q := 0
	for ci := 0; ci < c; ci++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				taps[q] = uint64(ci*hp*wp + ki*wp + kj)
				q++
			}
		}
	}
}

// weightGradTables returns the tapPanel tables of convWeightGradPadded
// in one pooled slice, laid end to end and shared read-only by the
// workers: the a-rows, one offset per tap (an odd count repeats its last
// tap, so that every row runs on an AVX panel kernel, the repeat into a
// scratch row of the partial); aoff, oy·s·Wp + ox·s for each output
// position p = (oy, ox); boff, p·F↑8; and the lane groups g·8, which
// serve as both gd and gb.
func weightGradTables(c, h, w, f, kh, kw int, p ConvParams) []uint64 {
	s, hp, wp := p.Stride, h+2*p.Padding, w+2*p.Padding
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	ckk, ohow := c*kh*kw, oh*ow
	rows := ckk + ckk%2
	f8 := (f + asmCols - 1) / asmCols * asmCols
	tab := compute.GetUint64(rows + 2*ohow + f8/asmCols)
	paddedTapOffsets(tab, c, hp, wp, kh, kw)
	tab[rows-1] = tab[ckk-1]
	aoff, boff, groups := tab[rows:rows+ohow], tab[rows+ohow:rows+2*ohow], tab[rows+2*ohow:]
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			aoff[oy*ow+ox] = uint64(oy*s*wp + ox*s)
		}
	}
	for q := range boff {
		boff[q] = uint64(q * f8)
	}
	for g := range groups {
		groups[g] = uint64(g * asmCols)
	}
	return tab
}

// convWeightGradPadded is image i's weight-gradient partial without a
// column matrix, returned as a pooled [f, c·kh·kw] buffer. It pads the
// image into zero-bordered planes xpad [C, Hp·Wp] as the forward does
// and transposes g_i into gT [OH·OW, F↑8], the filters as lanes (the
// lanes past F are zero). Then one tapPanel call over the tables of
// weightGradTables stores the partial [taps, F↑8]
//
//	part[q][fi] = Σ_p xpad[taps[q] + oy·s·Wp + ox·s] · gT[p][fi]   p = oy·OW + ox
//
// Each (tap, filter) lane starts at +0 and adds its x·g terms in
// ascending (oy, ox) — the reference's Σ_p g·col over the same explicit
// border zeros, with the multiply's operands swapped — so the partial is
// the column product's bit for bit; it is transposed back to [f,
// c·kh·kw] for the merge.
func convWeightGradPadded(be compute.Backend, x, gout *Tensor, tab []uint64, i, f, kh, kw int, p ConvParams) []float64 {
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	hp, wp := h+2*p.Padding, w+2*p.Padding
	ohow, ckk := p.ConvOutSize(h, kh)*p.ConvOutSize(w, kw), c*kh*kw
	rows := ckk + ckk%2
	f8 := (f + asmCols - 1) / asmCols * asmCols
	xpad := be.Get(c * hp * wp)
	defer be.Put(xpad)
	clear(xpad)
	padPlanesInto(xpad, x.data[i*c*h*w:], c, h, w, p.Padding)
	gT := be.Get(ohow * f8)
	defer be.Put(gT)
	clear(gT)
	for fi := 0; fi < f; fi++ {
		lane := gT[fi:]
		for q, v := range gout.data[(i*f+fi)*ohow : (i*f+fi+1)*ohow] {
			lane[q*f8] = v
		}
	}
	part := be.Get(rows * f8)
	defer be.Put(part)
	groups := tab[rows+2*ohow:]
	tapPanel(part, f8, xpad, tab[:rows], tab[rows:rows+ohow], gT, tab[rows+ohow:rows+2*ohow], groups, groups)
	dw := be.Get(f * ckk)
	for fi := 0; fi < f; fi++ {
		row := dw[fi*ckk : (fi+1)*ckk]
		for q := range row {
			row[q] = part[q*f8+fi]
		}
	}
	return dw
}

// convBiasGradInto accumulates the bias gradient — the per-filter sum of
// gout — serially in image order so the result does not depend on the
// backend's partitioning.
func convBiasGradInto(dbias, gout []float64, n, f, ohow int) {
	for i := 0; i < n; i++ {
		g := gout[i*f*ohow : (i+1)*f*ohow]
		for fi := 0; fi < f; fi++ {
			seg := g[fi*ohow : (fi+1)*ohow]
			var s float64
			for _, v := range seg {
				s += v
			}
			dbias[fi] += s
		}
	}
}
