package tensor

import (
	"fmt"

	"snnsec/internal/compute"
)

// Convolution is batched: each conv product — forward, input gradient,
// weight gradient — covers the whole batch [N,C,H,W] and partitions it
// across workers, and all scratch comes from the backend's buffer pool.
//
// The forward product W·col never builds col. Over a zero-bordered copy
// xpad [C, Hp·Wp] of one image, row (ci, ki, kj) of the stride-1 im2col
// matrix is plane ci shifted by ki·Wp + kj, so the panel dispatcher
// (panelAccum) reads it in place: one call per (ci, ki) with k = KW and
// a b-step of one float walks the KW taps of a kernel row for every
// filter over a stride-1 product laid out Wp wide (conv2DPaddedInto). A
// stride-s output is that product read at every s-th row and column.
// Every output element still accumulates its taps in ascending (ci, ki,
// kj) order from zero and multiplies the same explicit border zeros
// im2col writes, so the floats — 0·NaN and 0·Inf included — are the
// column pipeline's.
//
// The weight gradient reads the same zero-bordered planes: per image,
// Σ_p g[f][p]·col[tap][p] over the output positions p is, for each
// output row oy, one panelAccum call whose a-rows are the planes shifted
// to the taps and stepped s floats, and whose b-operand is g_i's row oy
// transposed so that the filters are the panel's lanes
// (convWeightGradPadded).
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
// ldcol = oh*ow. Overlapping taps land within a single channel, so the
// scatter is partitioned across channels; within a channel the taps
// ascend (ki, kj), so every dst element meets its addends in one order.
// With kernel set (production passes true, the per-image reference in
// naive.go false) a stride-1 tap is one addRectAVX call on builds with
// AVX; the Go loop is the reference it is pinned to and serves every
// other stride and build.
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
// [N,F,OH,OW], which may be dirty arena memory, and returns dst: the
// padded-plane product (conv2DPaddedInto), bit-identical to the
// per-image reference Conv2DPerImageOn.
func Conv2DInto(be compute.Backend, dst, x, weight, bias *Tensor, p ConvParams) *Tensor {
	n, _, h, w, f, kh, kw := convShapes("Conv2D", x, weight, bias, p)
	checkDst("Conv2D", dst, n, f, p.ConvOutSize(h, kh), p.ConvOutSize(w, kw))
	conv2DPaddedInto(backendOr(be), dst, x, weight, bias, p)
	return dst
}

// conv2DPaddedInto is the forward product without a column matrix (see
// the package comment above). Per image it copies the planes into the
// interior of xpad — a pooled [C, Hp·Wp] buffer whose zero border is
// cleared once per block, plus kw+8 zero floats of slack the last panel
// reads past the final plane — and clears prod [F, span], the stride-1
// product over the rows 0…(OH−1)·s, laid out Wp wide and rounded up to
// the panel's 8 columns. Output (oy, ox) of filter fi is
// prod[fi][oy·s·Wp + ox·s]; the columns at the end of each product row
// (products of wrapped-around taps), the rows and columns between
// strided outputs and the rounding tail are never copied out. For each
// (ci, ki) one panelAccum call covers every filter; the calls ascend and
// each call's k loop ascends kj, reloading the accumulators the previous
// call stored.
func conv2DPaddedInto(be compute.Backend, dst, x, weight, bias *Tensor, p ConvParams) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	f, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
	hp, wp := h+2*p.Padding, w+2*p.Padding
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	plane := hp * wp
	span := (((oh-1)*p.Stride+1)*wp + asmCols - 1) / asmCols * asmCols
	ckk := c * kh * kw
	filters := compute.GetUint64(f) // a-row offsets: filter fi's weights
	defer compute.PutUint64(filters)
	for fi := range filters {
		filters[fi] = uint64(fi * ckk)
	}
	// The closure reads weight.data and p.Stride rather than capturing
	// them as locals: the three words more would move it up an allocation
	// size class, and it is allocated once per call.
	be.ParallelFor(n, grainRows(2*f*ckk*oh*ow), func(lo, hi int) {
		wd := weight.data
		xpad := be.Get(c*plane + kw + asmCols)
		defer be.Put(xpad)
		clear(xpad)
		prod := be.Get(f * span)
		defer be.Put(prod)
		for i := lo; i < hi; i++ {
			padPlanesInto(xpad, x.data[i*c*h*w:], c, h, w, p.Padding)
			clear(prod)
			for ci := 0; ci < c; ci++ {
				for ki := 0; ki < kh; ki++ {
					panelAccum(prod, span, wd[(ci*kh+ki)*kw:], filters, 1, xpad[ci*plane+ki*wp:], 1, kw, span)
				}
			}
			readOutInto(dst.data[i*f*oh*ow:], prod, bias, f, span, oh, ow, wp, p.Stride)
		}
	})
}

// readOutInto writes one image's [f, oh, ow] outputs over out, read off
// the stride-1 product prod [f, span] laid out wp wide:
// out[fi][oy][ox] = prod[fi][oy·s·wp + ox·s] (+ bias[fi]). It is a
// function of its own so that the stride-1 copy, the one every network
// here runs, keeps its operands in registers; inlined into the worker
// closure it spilled them and cost the batch-32 forward 10–30 %.
func readOutInto(out, prod []float64, bias *Tensor, f, span, oh, ow, wp, s int) {
	for fi := 0; fi < f; fi++ {
		for oy := 0; oy < oh; oy++ {
			dst, src := out[(fi*oh+oy)*ow:][:ow], prod[fi*span+oy*s*wp:]
			switch {
			case s > 1:
				for j := range dst {
					dst[j] = src[j*s]
					if bias != nil {
						dst[j] += bias.data[fi]
					}
				}
			case bias == nil:
				copy(dst, src)
			default:
				bv, src := bias.data[fi], src[:ow]
				for j := range dst {
					dst[j] = src[j] + bv
				}
			}
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
		clear(dcol)
		matMulATBAccum(be, dcol, weight.data, gbig, f, ckk, cols)
		be.Put(gbig)
	}
	var partials [][]float64
	var taps []uint64
	if dweight != nil {
		checkDst(name, dweight, weight.shape...)
		partials = make([][]float64, n)
		taps = compute.GetUint64(ckk)
		defer compute.PutUint64(taps)
		paddedTapOffsets(taps, c, h+2*p.Padding, w+2*p.Padding, kh, kw)
	}
	if dx != nil || partials != nil {
		be.ParallelFor(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if dx != nil {
					col2imAddInto(be, dx.data[i*chw:(i+1)*chw], dcol[i*ohow:], cols, c, h, w, kh, kw, p, true)
				}
				if partials != nil {
					partials[i] = convWeightGradPadded(be, x, gout, taps, i, f, kh, kw, p)
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

// convWeightGradPadded is image i's weight-gradient partial without a
// column matrix, returned as a pooled [f, c·kh·kw] buffer. It pads the
// image into zero-bordered planes xpad [C, Hp·Wp] as the forward does
// and transposes g_i into gT [OH·OW, F↑8], the filters as lanes (the
// lanes past F are zero). Then, for each output row oy, one panelAccum
// call over every tap accumulates into the partial [taps, F↑8]
//
//	part[q][fi] += Σ_ox xpad[taps[q] + oy·s·Wp + ox·s] · gT[oy·OW + ox][fi]
//
// with a-rows the tap's shifted plane (a-step s floats, k = OW) and b
// gT's rows for oy. Each (tap, filter) lane starts at zero and adds its
// x·g terms in ascending (oy, ox) — the reference's Σ_p g·col over the
// same explicit border zeros, with the multiply's operands swapped — so
// the partial is the column product's bit for bit; it is transposed back
// to [f, c·kh·kw] for the merge.
func convWeightGradPadded(be compute.Backend, x, gout *Tensor, taps []uint64, i, f, kh, kw int, p ConvParams) []float64 {
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	s, hp, wp := p.Stride, h+2*p.Padding, w+2*p.Padding
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	ohow, ckk := oh*ow, c*kh*kw
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
	part := be.Get(ckk * f8)
	defer be.Put(part)
	clear(part)
	for oy := 0; oy < oh; oy++ {
		panelAccum(part, f8, xpad[oy*s*wp:], taps, s, gT[oy*ow*f8:], f8, ow, f8)
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
