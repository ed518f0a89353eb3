package tensor

import (
	"fmt"

	"snnsec/internal/compute"
)

// Convolution is batched: each conv product — forward, input gradient,
// weight gradient — covers the whole batch [N,C,H,W] and partitions it
// across workers, and all scratch comes from the backend's buffer pool.
//
// The forward product W·col at stride 1 never builds col. Over a
// zero-bordered copy xpad [C, Hp·Wp] of one image, row (ci, ki, kj) of
// the im2col matrix is plane ci shifted by ki·Wp + kj, so the AVX panel
// kernel reads it in place: one panel call per (ci, ki) with k = KW and
// a b-step of one float walks the KW taps of a kernel row over a product
// laid out Wp wide (conv2DPaddedInto). Every output element still
// accumulates its taps in ascending (ci, ki, kj) order from zero and
// multiplies the same explicit border zeros im2col writes, so the floats
// — 0·NaN and 0·Inf included — are the column pipeline's.
//
// The weight gradient reads the same zero-bordered planes: per image,
// Σ_p g[f][p]·col[tap][p] over the output positions p is, for each
// output row oy, one panel call per block of taps whose a-rows are the
// planes shifted to the taps and whose b-operand is g_i's row oy
// transposed so that the filters are the panel's lanes
// (convWeightGradPadded).
//
// The column matrix [C·KH·KW, N·OH·OW] (each image owns a contiguous slab
// of columns; im2colBatchInto) is still what both products run over at
// stride ≠ 1 and on builds without the AVX panel; the input gradient is
// one Wᵀ·G matmul over the batch scattered back by col2im. The per-image
// path is retained in naive.go as the bit-identical reference.

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

// im2colBatchInto expands the batch x [n,c,h,w] into dst, the batch-wide
// column matrix [c*kh*kw, n*oh*ow] in which image i owns the contiguous
// column slab [i*oh*ow, (i+1)*oh*ow). Every element is written
// (out-of-bounds taps become explicit zeros), so dst may be a reused
// pooled buffer. (row, image) pairs are partitioned across workers; each
// pair's slab is written by exactly one block.
func im2colBatchInto(be compute.Backend, dst, x []float64, n, c, h, w, kh, kw int, p ConvParams) {
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	ohow := oh * ow
	rows := c * kh * kw
	be.ParallelFor(rows*n, grainRows(ohow), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			r, i := idx/n, idx%n
			ci := r / (kh * kw)
			ki := (r / kw) % kh
			kj := r % kw
			img := x[i*c*h*w : (i+1)*c*h*w]
			row := dst[r*n*ohow+i*ohow : r*n*ohow+(i+1)*ohow]
			// For stride 1 the valid ox range is a single interval and the
			// taps are consecutive input pixels, so each output row is a
			// zero prefix, one copy, and a zero suffix.
			oxlo, oxhi := 0, 0
			if p.Stride == 1 {
				oxlo = min(ow, max(0, p.Padding-kj))
				oxhi = max(oxlo, min(ow, w+p.Padding-kj))
			}
			for oy := 0; oy < oh; oy++ {
				iy := oy*p.Stride + ki - p.Padding
				seg := row[oy*ow : (oy+1)*ow]
				if iy < 0 || iy >= h {
					for ox := range seg {
						seg[ox] = 0
					}
					continue
				}
				srcRow := img[(ci*h+iy)*w : (ci*h+iy+1)*w]
				if p.Stride == 1 {
					for ox := 0; ox < oxlo; ox++ {
						seg[ox] = 0
					}
					if oxhi > oxlo { // empty interval: src index may be out of range
						copy(seg[oxlo:oxhi], srcRow[oxlo+kj-p.Padding:])
					}
					for ox := oxhi; ox < ow; ox++ {
						seg[ox] = 0
					}
					continue
				}
				for ox := 0; ox < ow; ox++ {
					ix := ox*p.Stride + kj - p.Padding
					if ix >= 0 && ix < w {
						seg[ox] = srcRow[ix]
					} else {
						seg[ox] = 0
					}
				}
			}
		}
	})
}

// col2imAddInto accumulates a column matrix into the image gradient dst
// (len c*h*w). The matrix's c*kh*kw rows of length oh*ow start at
// multiples of ldcol within col, so one image's column slab of the
// batch-wide matrix can be scattered in place (pass ldcol = n*oh*ow and
// col offset i*oh*ow); for a contiguous single-image matrix pass
// ldcol = oh*ow. Overlapping taps land within a single channel, so the
// scatter is partitioned across channels; within a channel the taps
// ascend (ki, kj), so every dst element meets its addends in one order.
// With kernel set (callers pass useAVX; the per-image reference in
// naive.go passes false) a stride-1 tap is one addRectAVX call; the Go
// loop is the reference it is pinned to and serves every other stride.
func col2imAddInto(be compute.Backend, dst, col []float64, ldcol int, c, h, w, kh, kw int, p ConvParams, kernel bool) {
	ohow := p.ConvOutSize(h, kh) * p.ConvOutSize(w, kw)
	be.ParallelFor(c, grainRows(kh*kw*ohow), func(clo, chi int) {
		// Recomputed rather than captured: this closure is allocated once
		// per image per scatter, and two captured words more would push it
		// from the 128-byte size class into the 144-byte one.
		oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
		for ci := clo; ci < chi; ci++ {
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
					if kernel && p.Stride == 1 {
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
	})
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
// [N,F,OH,OW], which may be dirty arena memory, and returns dst. At
// stride 1 with the AVX panel available the product runs over padded
// planes (conv2DPaddedInto); otherwise the whole batch is expanded into
// one pooled column matrix and convolved with a single blocked matmul
// [F, C·KH·KW]·[C·KH·KW, N·OH·OW], and a final scatter pass reorders the
// product into the [N,F,OH,OW] output layout and folds in the bias.
// Bit-identical to the per-image reference Conv2DPerImageOn either way.
func Conv2DInto(be compute.Backend, dst, x, weight, bias *Tensor, p ConvParams) *Tensor {
	n, c, h, w, f, kh, kw := convShapes("Conv2D", x, weight, bias, p)
	be = backendOr(be)
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	checkDst("Conv2D", dst, n, f, oh, ow)
	if p.Stride == 1 && useAVX {
		conv2DPaddedInto(be, dst, x, weight, bias, p.Padding)
		return dst
	}
	ohow := oh * ow
	ckk := c * kh * kw
	cols := n * ohow
	wmat := weight.data // [f, ckk] row-major, same layout as the reshape
	col := be.Get(ckk * cols)
	defer be.Put(col)
	im2colBatchInto(be, col, x.data, n, c, h, w, kh, kw, p)
	prod := be.Get(f * cols)
	defer be.Put(prod)
	clear(prod) // matMulAccum accumulates; the pooled buffer is dirty
	matMulAccum(be, prod, wmat, col, f, ckk, cols)
	be.ParallelFor(n*f, grainRows(ohow), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			i, fi := idx/f, idx%f
			addBiasInto(dst.data[idx*ohow:(idx+1)*ohow], prod[fi*cols+i*ohow:], bias, fi)
		}
	})
	return dst
}

// addBiasInto writes src[:len(out)] + bias[fi] over out — a plain copy
// without a bias.
func addBiasInto(out, src []float64, bias *Tensor, fi int) {
	if bias == nil {
		copy(out, src)
		return
	}
	bv := bias.data[fi]
	src = src[:len(out)]
	for j := range out {
		out[j] = src[j] + bv
	}
}

// conv2DPaddedInto is the stride-1 forward product without a column
// matrix (see the package comment above). Per image it copies the planes
// into the interior of xpad — a pooled [C, Hp·Wp] buffer whose zero
// border is cleared once per block, plus kw+8 zero floats of slack the
// last panel reads past the final plane — and clears prod [F, span],
// span = OH·Wp rounded up to the panel's 8 columns. Output (oy, ox) of
// filter fi is prod[fi][oy·Wp+ox]; the Wp−OW columns at the end of each
// product row (and the rounding tail) hold products of wrapped-around
// taps and are never copied out. Filters run four to a panel, two for an
// F mod 4 ≥ 2 fringe, and an odd last filter on a scalar row; within a
// filter block the (ci, ki) calls ascend and each call's k loop ascends
// kj, reloading the accumulators the previous call stored.
func conv2DPaddedInto(be compute.Backend, dst, x, weight, bias *Tensor, pad int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	f, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
	hp, wp := h+2*pad, w+2*pad
	oh, ow := hp-kh+1, wp-kw+1
	plane := hp * wp
	span := (oh*wp + asmCols - 1) / asmCols * asmCols
	groups := int64(span / asmCols)
	ckk := c * kh * kw
	wd := weight.data
	be.ParallelFor(n, grainRows(2*f*ckk*oh*ow), func(lo, hi int) {
		xpad := be.Get(c*plane + kw + asmCols)
		defer be.Put(xpad)
		clear(xpad)
		prod := be.Get(f * span)
		defer be.Put(prod)
		for i := lo; i < hi; i++ {
			padPlanesInto(xpad, x.data[i*c*h*w:], c, h, w, pad)
			clear(prod)
			for ci := 0; ci < c; ci++ {
				for ki := 0; ki < kh; ki++ {
					b := xpad[ci*plane+ki*wp:]
					tap := (ci*kh + ki) * kw // first of this kernel row's kw taps
					fi := 0
					for ; fi+4 <= f; fi += 4 {
						mmPanel4AVX(&prod[fi*span], int64(8*span),
							&wd[fi*ckk+tap], &wd[(fi+1)*ckk+tap], &wd[(fi+2)*ckk+tap], &wd[(fi+3)*ckk+tap], 8,
							&b[0], 8, int64(kw), groups)
					}
					if fi+2 <= f {
						mmPanel2AVX(&prod[fi*span], int64(8*span),
							&wd[fi*ckk+tap], &wd[(fi+1)*ckk+tap], 8,
							&b[0], 8, int64(kw), groups)
						fi += 2
					}
					if fi < f {
						orow := prod[fi*span : (fi+1)*span]
						for kj, wv := range wd[fi*ckk+tap:][:kw] {
							brow := b[kj:]
							for q := range orow {
								orow[q] += wv * brow[q]
							}
						}
					}
				}
			}
			for fi := 0; fi < f; fi++ {
				for oy := 0; oy < oh; oy++ {
					addBiasInto(dst.data[((i*f+fi)*oh+oy)*ow:][:ow], prod[fi*span+oy*wp:], bias, fi)
				}
			}
		}
	})
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
// gradient's planes or column matrix and its per-image partials when it
// is not wanted, and the Wᵀ·G product and col2im scatter when the input
// gradient is not, and each gradient that is computed is bit-identical
// whatever else was asked for. This is convGrads with the per-image
// weight-gradient partial read off zero-bordered planes where the
// forward reads them (stride 1 with the AVX panel; convWeightGradPadded)
// and otherwise computed as g_i·col_iᵀ in place on image i's slab of the
// batch-wide column matrix. Bit-identical to the per-image reference
// Conv2DBackwardPerImageOn.
func Conv2DGradsInto(be compute.Backend, dx, dweight, dbias, x, weight, gout *Tensor, p ConvParams) {
	n, c, h, w, f, kh, kw := convShapes("Conv2DBackward", x, weight, nil, p)
	be = backendOr(be)
	ohow := p.ConvOutSize(h, kh) * p.ConvOutSize(w, kw)
	ckk := c * kh * kw
	var dwPartial func(i int) []float64
	switch {
	case dweight == nil:
	case p.Stride == 1 && useAVX:
		offs := compute.GetUint64(ckk + ckk&1)
		defer compute.PutUint64(offs)
		paddedTapOffsets(offs, c, h+2*p.Padding, w+2*p.Padding, kh, kw)
		dwPartial = func(i int) []float64 { return convWeightGradPadded(be, x, gout, offs, i, f, kh, kw, p.Padding) }
	default:
		cols := n * ohow
		col := be.Get(ckk * cols)
		defer be.Put(col)
		im2colBatchInto(be, col, x.data, n, c, h, w, kh, kw, p)
		dwPartial = func(i int) []float64 {
			dw := be.Get(f * ckk)
			matMulABTInto(be, dw, gout.data[i*f*ohow:(i+1)*f*ohow], col[i*ohow:], f, ohow, ckk, cols)
			return dw
		}
	}
	convGrads(be, "Conv2DBackward", dx, dweight, dbias, n, c, h, w, weight, gout, p, dwPartial)
}

// paddedTapOffsets writes into offs the offset of each tap q = (ci, ki,
// kj) within c zero-bordered planes [hp, wp] laid end to end — the start
// of column-matrix row q's first output row — and 0 for the dummy tap
// that pads an odd tap count to the two-row panel.
func paddedTapOffsets(offs []uint64, c, hp, wp, kh, kw int) {
	q := 0
	for ci := 0; ci < c; ci++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				offs[q] = uint64(ci*hp*wp + ki*wp + kj)
				q++
			}
		}
	}
	clear(offs[q:])
}

// convWeightGradPadded is image i's weight-gradient partial at stride 1
// without a column matrix, returned as a pooled [f, c·kh·kw] buffer. It
// pads the image into zero-bordered planes xpad [C, Hp·Wp] as the forward
// does and transposes g_i into gT [OH·OW, F↑8], the filters as lanes (the
// lanes past F are zero). Then, for each output row oy, one panel call
// per block of four taps (two for the remainder; offs pads an odd count
// with a dummy tap) accumulates into the partial [taps, F↑8]
//
//	part[q][fi] += Σ_ox xpad[offs[q] + oy·Wp + ox] · gT[oy·OW + ox][fi]
//
// with a-rows the tap's shifted plane (a-step one float, k = OW) and b
// gT's rows for oy. Each (tap, filter) lane starts at zero and adds its
// x·g terms in ascending (oy, ox) — the reference's Σ_p g·col over the
// same explicit border zeros, with the multiply's operands swapped — so
// the partial is the column product's bit for bit; it is transposed back
// to [f, c·kh·kw] for the merge.
func convWeightGradPadded(be compute.Backend, x, gout *Tensor, offs []uint64, i, f, kh, kw, pad int) []float64 {
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	hp, wp := h+2*pad, w+2*pad
	oh, ow := hp-kh+1, wp-kw+1
	ohow, ckk, taps := oh*ow, c*kh*kw, len(offs)
	f8 := (f + asmCols - 1) / asmCols * asmCols
	xpad := be.Get(c * hp * wp)
	defer be.Put(xpad)
	clear(xpad)
	padPlanesInto(xpad, x.data[i*c*h*w:], c, h, w, pad)
	gT := be.Get(ohow * f8)
	defer be.Put(gT)
	clear(gT)
	for fi := 0; fi < f; fi++ {
		lane := gT[fi:]
		for q, v := range gout.data[(i*f+fi)*ohow : (i*f+fi+1)*ohow] {
			lane[q*f8] = v
		}
	}
	part := be.Get(taps * f8)
	defer be.Put(part)
	clear(part)
	step, groups := int64(8*f8), int64(f8/asmCols)
	for oy := 0; oy < oh; oy++ {
		a, b := xpad[oy*wp:], &gT[oy*ow*f8]
		q := 0
		for ; q+4 <= taps; q += 4 {
			mmPanel4AVX(&part[q*f8], step, &a[offs[q]], &a[offs[q+1]], &a[offs[q+2]], &a[offs[q+3]], 8, b, step, int64(ow), groups)
		}
		if q < taps {
			mmPanel2AVX(&part[q*f8], step, &a[offs[q]], &a[offs[q+1]], 8, b, step, int64(ow), groups)
		}
	}
	dw := be.Get(f * ckk)
	for fi := 0; fi < f; fi++ {
		row := dw[fi*ckk : (fi+1)*ckk]
		for q := range row {
			row[q] = part[q*f8+fi]
		}
	}
	return dw
}

// convGrads is the one backward body of the convolution kernels: it
// overwrites the destinations that are not nil with the gradients of a
// convolution over a batch [n,c,h,w]. The input gradient is one blocked
// Wᵀ·G matmul over the whole batch scattered back image by image
// (disjoint dx rows; the input is never read). The weight gradient is one
// pooled [f, c·kh·kw] partial per image — dwPartial(i), read off padded
// planes or off the column matrix (Conv2DGradsInto) — merged in image
// order after the parallel phase, so the result is independent of the
// partitioning. The bias gradient is the serial per-filter sum of gout.
// Every destination is cleared and then accumulated into, so it holds
// what a zeroed accumulator would.
func convGrads(be compute.Backend, name string, dx, dweight, dbias *Tensor, n, c, h, w int, weight, gout *Tensor, p ConvParams, dwPartial func(i int) []float64) {
	f, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
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
		clear(dcol)
		matMulATBAccum(be, dcol, weight.data, gbig, f, ckk, cols)
		be.Put(gbig)
	}
	var partials [][]float64
	if dweight != nil {
		checkDst(name, dweight, weight.shape...)
		partials = make([][]float64, n)
	}
	if dx != nil || partials != nil {
		be.ParallelFor(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if dx != nil {
					col2imAddInto(be, dx.data[i*chw:(i+1)*chw], dcol[i*ohow:], cols, c, h, w, kh, kw, p, useAVX)
				}
				if partials != nil {
					partials[i] = dwPartial(i)
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
