package tensor

import "snnsec/internal/compute"

// Reference kernels: the straightforward row-at-a-time matmuls and the
// per-image im2col conv path that preceded the cache-blocked
// micro-kernel and the padded-plane convolution. They are retained for
// two reasons: the equivalence tests pin the production kernels
// bit-for-bit against them, and bench_test.go times naive against
// blocked and per-image against batched. They are not used on any hot
// path.

// MatMulNaiveOn returns a·b computed with the reference row-at-a-time
// kernel (i-k-j loop order, one output row at a time). The blocked
// MatMulOn is bit-identical to it; use this entry point only for
// equivalence testing and benchmarking.
func MatMulNaiveOn(be compute.Backend, a, b *Tensor) *Tensor {
	m, k, n := matShapes("MatMulNaive", a, b, false, false)
	out := New(m, n)
	matMulNaiveInto(backendOr(be), out.data, a.data, b.data, m, k, n)
	return out
}

// matMulNaiveInto accumulates a·b into dst (len m*n, caller-zeroed),
// reading a [m,k] and b [k,n]. Rows of dst are partitioned across
// workers; the inner loops are ordered i-k-j so the innermost loop
// streams contiguously over both b and the output row.
func matMulNaiveInto(be compute.Backend, dst, a, b []float64, m, k, n int) {
	be.ParallelFor(m, grainRows(2*k*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			orow := dst[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := arow[p]
				brow := b[p*n : (p+1)*n]
				for j := 0; j < n; j++ {
					orow[j] += av * brow[j]
				}
			}
		}
	})
}

// matMulATBNaiveInto accumulates aᵀ·b into dst (len m*n, caller-zeroed)
// for a [k,m] and b [k,n] with the reference row-at-a-time loop.
func matMulATBNaiveInto(be compute.Backend, dst, a, b []float64, k, m, n int) {
	be.ParallelFor(m, grainRows(2*k*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := dst[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := a[p*m+i]
				brow := b[p*n : (p+1)*n]
				for j := 0; j < n; j++ {
					orow[j] += av * brow[j]
				}
			}
		}
	})
}

// matMulABTNaiveInto writes a·bᵀ into dst (len m*n) for a [m,k] and
// b [n,k] with the reference one-dot-product-per-element loop.
func matMulABTNaiveInto(be compute.Backend, dst, a, b []float64, m, k, n int) {
	be.ParallelFor(m, grainRows(2*k*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			orow := dst[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b[j*k : (j+1)*k]
				var s float64
				for p := 0; p < k; p++ {
					s += arow[p] * brow[p]
				}
				orow[j] = s
			}
		}
	})
}

// im2colInto expands one image img [c,h,w] into its column matrix dst
// [c·kh·kw, oh·ow]: row (ci, ki, kj) holds, for each output position,
// the pixel that tap reads, and an explicit zero where the tap falls on
// the padding.
func im2colInto(dst, img []float64, c, h, w, kh, kw int, p ConvParams) {
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	for r := 0; r < c*kh*kw; r++ {
		ci, ki, kj := r/(kh*kw), (r/kw)%kh, r%kw
		for oy := 0; oy < oh; oy++ {
			iy := oy*p.Stride + ki - p.Padding
			for ox := 0; ox < ow; ox++ {
				ix := ox*p.Stride + kj - p.Padding
				v := 0.0
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					v = img[(ci*h+iy)*w+ix]
				}
				dst[(r*oh+oy)*ow+ox] = v
			}
		}
	}
}

// Conv2DPerImageOn is the PR-1 conv forward path: one im2col expansion
// and one naive matmul per image, images partitioned across workers. The
// batched Conv2DOn is bit-identical to it; use this entry point only for
// equivalence testing and benchmarking.
func Conv2DPerImageOn(be compute.Backend, x, weight, bias *Tensor, p ConvParams) *Tensor {
	n, c, h, w, f, kh, kw := convShapes("Conv2DPerImage", x, weight, bias, p)
	be = backendOr(be)
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	ckk := c * kh * kw
	wmat := weight.data // [f, ckk] row-major, same layout as the reshape
	out := New(n, f, oh, ow)
	be.ParallelFor(n, 1, func(lo, hi int) {
		col := be.Get(ckk * oh * ow)
		defer be.Put(col)
		for i := lo; i < hi; i++ {
			img := x.data[i*c*h*w : (i+1)*c*h*w]
			im2colInto(col, img, c, h, w, kh, kw, p)
			dst := out.data[i*f*oh*ow : (i+1)*f*oh*ow]
			matMulNaiveInto(compute.Serial{}, dst, wmat, col, f, ckk, oh*ow)
			if bias != nil {
				for fi := 0; fi < f; fi++ {
					b := bias.data[fi]
					seg := dst[fi*oh*ow : (fi+1)*oh*ow]
					for j := range seg {
						seg[j] += b
					}
				}
			}
		}
	})
	return out
}

// Conv2DBackwardPerImageOn is the PR-1 conv backward path: per-image
// im2col, naive matmuls and col2im scatter, with the weight gradient
// merged from per-image partials in image order. The batched
// Conv2DBackwardOn is bit-identical to it; use this entry point only for
// equivalence testing and benchmarking.
func Conv2DBackwardPerImageOn(be compute.Backend, x, weight, gout *Tensor, p ConvParams, hasBias bool) (dx, dweight, dbias *Tensor) {
	n, c, h, w, f, kh, kw := convShapes("Conv2DBackwardPerImage", x, weight, nil, p)
	be = backendOr(be)
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	checkGoutShape("Conv2DBackwardPerImage", gout, n, f, oh, ow)
	ckk := c * kh * kw
	wmat := weight.data // [f, ckk] row-major
	dx = New(n, c, h, w)
	dwmat := New(f, ckk)
	if hasBias {
		dbias = New(f)
	}
	// dwPartials[i] is image i's contribution g_i·col_iᵀ, merged below.
	dwPartials := make([][]float64, n)
	be.ParallelFor(n, 1, func(lo, hi int) {
		col := be.Get(ckk * oh * ow)
		dcol := be.Get(ckk * oh * ow)
		defer be.Put(col)
		defer be.Put(dcol)
		for i := lo; i < hi; i++ {
			img := x.data[i*c*h*w : (i+1)*c*h*w]
			im2colInto(col, img, c, h, w, kh, kw, p)
			g := gout.data[i*f*oh*ow : (i+1)*f*oh*ow]
			// dW_i = g · colᵀ into a pooled per-image partial.
			dw := be.Get(f * ckk)
			matMulABTNaiveInto(compute.Serial{}, dw, g, col, f, oh*ow, ckk)
			dwPartials[i] = dw
			// dcol = Wᵀ · g, scattered back into dx.
			clear(dcol)
			matMulATBNaiveInto(compute.Serial{}, dcol, wmat, g, f, ckk, oh*ow)
			col2imAddInto(compute.Serial{}, dx.data[i*c*h*w:(i+1)*c*h*w], dcol, oh*ow, c, h, w, kh, kw, p, false)
		}
	})
	for _, dw := range dwPartials {
		for j, v := range dw {
			dwmat.data[j] += v
		}
		be.Put(dw)
	}
	if hasBias {
		convBiasGradInto(dbias.data, gout.data, n, f, oh*ow)
	}
	dweight = dwmat.Reshape(f, c, kh, kw)
	return dx, dweight, dbias
}
