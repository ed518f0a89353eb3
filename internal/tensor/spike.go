package tensor

import (
	"fmt"
	"math/bits"

	"snnsec/internal/compute"
)

// Spike-plane engine: binary activations stored one bit per element.
//
// Every layer input inside the SNN's BPTT loop is a spike matrix — a
// tensor whose elements are exactly 0 or 1 and which is mostly zeros at
// the low-Vth/low-T corners of the paper's (Vth, T) grid. Multiplying
// by a binary matrix needs no multiplies at all: a·b degenerates to
// "for each set bit p of row i, add row p of b into row i of the
// output" (select-accumulate). SpikeTensor stores that binary plane
// packed 64 elements per word with a per-row popcount index, so the
// kernels skip zeros 64 at a time instead of testing float64
// coefficients one by one, and the packed operand occupies 1/64 of the
// dense plane's memory bandwidth.
//
// Determinism: the select-accumulate kernels visit set bits in
// ascending element order and keep one accumulator per output element,
// which is exactly the dense kernels' ascending-k reduction. Skipping a
// zero coefficient is bit-identical to adding its 0·b term whenever b
// is finite (adding ±0 to any accumulated sum is an identity in IEEE
// arithmetic, and an accumulated sum of finite terms is never −0), so
// every spike kernel first checks the dense operand with allFinite and
// falls back to the dense reference kernel when 0·NaN / 0·Inf
// propagation could be observed — the same gate the dense zero-skip
// path uses. spike_test.go pins bit-identity against the dense
// reference across spike densities 0%, ~10%, ~50% and 100%, on the
// Serial and Parallel backends.

// SpikeTensor is a bit-packed binary tensor: element (r, c) of the
// logical [rows, cols] view — rows is the leading dimension, cols the
// product of the rest — is bit c&63 of word bits[r*words + c>>6]. Each
// row starts on a word boundary so rows can be packed, unpacked and
// gathered independently. counts[r] caches the popcount of row r.
//
// A SpikeTensor is immutable after construction; the lazily built dense
// view is cached and shared, so callers must not mutate it.
type SpikeTensor struct {
	shape  []int
	rows   int
	cols   int
	words  int // words per row: ceil(cols/64)
	bits   []uint64
	counts []int
	dense  *Tensor // lazy cache; nil until DenseOn materialises it
}

// spikeDims returns the packed geometry for a shape.
func spikeDims(shape []int) (rows, cols, words int) {
	if len(shape) == 0 {
		panic("tensor: spike tensors must have at least one dimension")
	}
	rows = shape[0]
	cols = 1
	for _, d := range shape[1:] {
		cols *= d
	}
	return rows, cols, (cols + 63) / 64
}

// PackSpikes packs a binary 0/1 tensor into spike-plane form on the
// default backend.
func PackSpikes(t *Tensor) *SpikeTensor { return PackSpikesOn(nil, t) }

// PackSpikesOn packs t on be (nil selects the default backend). Every
// element must be exactly 0 or 1 — the select-accumulate kernels assume
// 1·x = x — and the pack panics otherwise. Rows are packed in parallel;
// each row owns a disjoint word range.
func PackSpikesOn(be compute.Backend, t *Tensor) *SpikeTensor {
	rows, cols, words := spikeDims(t.shape)
	s := &SpikeTensor{
		shape:  append([]int(nil), t.shape...),
		rows:   rows,
		cols:   cols,
		words:  words,
		bits:   make([]uint64, rows*words),
		counts: make([]int, rows),
	}
	backendOr(be).ParallelFor(rows, grainRows(cols), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			src := t.data[r*cols : (r+1)*cols]
			dst := s.bits[r*words : (r+1)*words]
			count := 0
			for wi := range dst {
				var w uint64
				base := wi * 64
				limit := min(64, cols-base)
				for b := 0; b < limit; b++ {
					switch src[base+b] {
					case 0:
					case 1:
						w |= 1 << uint(b)
					default:
						panic(fmt.Sprintf("tensor: PackSpikes element (%d,%d) = %v is not binary", r, base+b, src[base+b]))
					}
				}
				dst[wi] = w
				count += bits.OnesCount64(w)
			}
			s.counts[r] = count
		}
	})
	return s
}

// ensureCounts materialises the per-row popcount index on first use.
// Like the dense-view cache, it is not synchronised (tape-owned tensors
// are used from one goroutine).
func (s *SpikeTensor) ensureCounts() []int {
	if s.counts == nil {
		counts := make([]int, s.rows)
		for r := 0; r < s.rows; r++ {
			c := 0
			for _, w := range s.bits[r*s.words : (r+1)*s.words] {
				c += bits.OnesCount64(w)
			}
			counts[r] = c
		}
		s.counts = counts
	}
	return s.counts
}

// NewSpikeTensorFromBits wraps bit planes a producer computed inline
// (e.g. the LIF threshold step packs while it thresholds) into a
// SpikeTensor. bits must hold rows·ceil(cols/64) words in the row-
// aligned layout (unused tail bits of each row's last word zero), and
// counts, when non-nil, the per-row popcounts; both are used directly,
// not copied. The caller vouches that the bits match the 0/1 plane it
// is packing — the kernels' bit-identity contract rests on that.
func NewSpikeTensorFromBits(bits []uint64, counts []int, shape ...int) *SpikeTensor {
	rows, cols, words := spikeDims(shape)
	if len(bits) != rows*words {
		panic(fmt.Sprintf("tensor: NewSpikeTensorFromBits got %d words for shape %v (want %d)", len(bits), shape, rows*words))
	}
	if counts != nil && len(counts) != rows {
		panic(fmt.Sprintf("tensor: NewSpikeTensorFromBits got %d counts for %d rows", len(counts), rows))
	}
	return &SpikeTensor{
		shape:  append([]int(nil), shape...),
		rows:   rows,
		cols:   cols,
		words:  words,
		bits:   bits,
		counts: counts,
	}
}

// Shape returns the logical dimensions. The returned slice must not be
// modified.
func (s *SpikeTensor) Shape() []int { return s.shape }

// Dims returns the number of logical dimensions.
func (s *SpikeTensor) Dims() int { return len(s.shape) }

// Dim returns the size of dimension i.
func (s *SpikeTensor) Dim(i int) int { return s.shape[i] }

// Len returns the total number of logical elements.
func (s *SpikeTensor) Len() int { return s.rows * s.cols }

// Bit reports whether element (r, c) of the [rows, cols] view is set.
func (s *SpikeTensor) Bit(r, c int) bool {
	return s.bits[r*s.words+c>>6]>>(uint(c)&63)&1 != 0
}

// RowCount returns the popcount of row r of the [rows, cols] view.
func (s *SpikeTensor) RowCount(r int) int { return s.ensureCounts()[r] }

// Count returns the total number of set bits.
func (s *SpikeTensor) Count() int {
	total := 0
	for _, c := range s.ensureCounts() {
		total += c
	}
	return total
}

// Density returns the fraction of set bits in [0, 1].
func (s *SpikeTensor) Density() float64 {
	return float64(s.Count()) / float64(s.Len())
}

// Reshape returns a view sharing s's bits under a new shape. The
// element count and the leading dimension must be preserved — rows are
// word-padded, so only reshapes that keep the row structure (e.g.
// flattening [N,C,H,W] to [N, C·H·W]) are representable. As for
// Tensor.Reshape, one dimension may be -1 and is inferred.
func (s *SpikeTensor) Reshape(shape ...int) *SpikeTensor {
	shape = append([]int(nil), shape...)
	inferDim(shape, s.shape, s.Len())
	if rows, _, _ := spikeDims(shape); rows != s.rows {
		panic(fmt.Sprintf("tensor: spike reshape %v to %v must preserve the leading dimension", s.shape, shape))
	}
	out := *s
	out.shape = shape
	if s.dense != nil {
		// Carry the cached dense view under the new shape (same data).
		out.dense = s.dense.Reshape(shape...)
	}
	return &out
}

// Dense returns the dense 0/1 view, materialising it on the default
// backend on first use.
func (s *SpikeTensor) Dense() *Tensor { return s.DenseOn(nil) }

// DenseOn returns the dense 0/1 view, materialising it on be on first
// use and caching it. The cache is not synchronised: concurrent first
// calls on the same tensor race (tape-owned tensors are used from one
// goroutine; materialise before sharing otherwise). The returned tensor
// is shared — callers must not mutate it.
func (s *SpikeTensor) DenseOn(be compute.Backend) *Tensor {
	if s.dense == nil {
		s.dense = s.DenseInto(be, New(s.shape...))
	}
	return s.dense
}

// DenseInto writes the dense 0/1 view over every element of dst — which
// must have the plane's shape and may be dirty arena memory — on be and
// returns dst, leaving the cached view alone.
func (s *SpikeTensor) DenseInto(be compute.Backend, dst *Tensor) *Tensor {
	checkDst("SpikeTensor.DenseInto", dst, s.shape...)
	backendOr(be).ParallelFor(s.rows, grainRows(s.cols), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			drow := dst.data[r*s.cols : (r+1)*s.cols]
			clear(drow)
			for wi, w := range s.bits[r*s.words : (r+1)*s.words] {
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					drow[wi*64+b] = 1
				}
			}
		}
	})
	return dst
}

// addRow accumulates src into dst elementwise (dst += src), 4-wide
// unrolled. It is the entire inner loop of the select-accumulate
// kernels: one call per set spike bit, no multiplies.
func addRow(dst, src []float64) {
	n := len(dst)
	src = src[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		d := (*[4]float64)(dst[j:])
		s := (*[4]float64)(src[j:])
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; j < n; j++ {
		dst[j] += src[j]
	}
}

// spikeSelectAccumInto accumulates the select-accumulate product into
// dst (len m*n, caller-zeroed): for each row i of the packed plane
// (bitRows, words words per row, m rows, k logical columns), every set
// bit p adds b's row p (length n) into dst's row i. Set bits are
// visited in ascending p — word order, then TrailingZeros within a word
// — so each output element accumulates in the dense kernels'
// ascending-k order. avgCount sizes the parallel grain.
func spikeSelectAccumInto(be compute.Backend, dst []float64, bitRows []uint64, words, m int, b []float64, n, avgCount int) {
	be.ParallelFor(m, grainRows(2*(avgCount+1)*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := dst[i*n : (i+1)*n]
			row := bitRows[i*words : (i+1)*words]
			for wi, w := range row {
				base := wi * 64
				for w != 0 {
					p := base + bits.TrailingZeros64(w)
					w &= w - 1
					addRow(orow, b[p*n:(p+1)*n])
				}
			}
		}
	})
}

// spikeMatShapes validates a product of the 2-d spike plane s, read as
// [m,k], with the dense b [k,n], and returns its dimensions.
func spikeMatShapes(name string, s *SpikeTensor, b *Tensor, m, k int) (int, int, int) {
	if s.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-d operands, got %v x %v", name, s.shape, b.shape))
	}
	if k != b.shape[0] {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", name, s.shape, b.shape))
	}
	return m, k, b.shape[1]
}

// SpikeMatMul returns the matrix product s·b for a binary [m,k] spike
// plane and dense [k,n] b on the default backend.
func SpikeMatMul(s *SpikeTensor, b *Tensor) *Tensor { return SpikeMatMulOn(nil, s, b) }

// SpikeMatMulOn returns s·b computed on be (nil selects the default
// backend) as a multiply-free row select-accumulate, bit-identical to
// MatMulOn on the dense view. When b is not finite everywhere the
// product must propagate 0·NaN / 0·Inf, so it falls back to the dense
// kernel on the unpacked view.
func SpikeMatMulOn(be compute.Backend, s *SpikeTensor, b *Tensor) *Tensor {
	m, _, n := spikeMatShapes("SpikeMatMul", s, b, s.rows, s.cols)
	return SpikeMatMulInto(be, New(m, n), s, b)
}

// SpikeMatMulInto writes s·b over every element of dst [m,n], which may
// be dirty arena memory, and returns dst.
func SpikeMatMulInto(be compute.Backend, dst *Tensor, s *SpikeTensor, b *Tensor) *Tensor {
	m, k, n := spikeMatShapes("SpikeMatMul", s, b, s.rows, s.cols)
	checkDst("SpikeMatMul", dst, m, n)
	be = backendOr(be)
	clear(dst.data)
	if !allFinite(b.data) {
		matMulAccum(be, dst.data, s.DenseOn(be).data, b.data, m, k, n, true)
		return dst
	}
	spikeSelectAccumInto(be, dst.data, s.bits, s.words, m, b.data, n, s.Count()/m)
	return dst
}

// SpikeMatMulATB returns sᵀ·b for a binary [k,m] spike plane and dense
// [k,n] b on the default backend.
func SpikeMatMulATB(s *SpikeTensor, b *Tensor) *Tensor { return SpikeMatMulATBOn(nil, s, b) }

// SpikeMatMulATBOn returns sᵀ·b (shape [m,n]) computed on be (nil
// selects the default backend): output row i accumulates exactly the
// rows p of b where spike bit (p, i) is set, in ascending p — the
// weight-gradient product dW = spikesᵀ·g with the dense kernel's
// per-element reduction order preserved, so the result is bit-identical
// to MatMulATBOn on the dense view. Falls back to the dense kernel when
// b is not finite everywhere.
func SpikeMatMulATBOn(be compute.Backend, s *SpikeTensor, b *Tensor) *Tensor {
	m, _, n := spikeMatShapes("SpikeMatMulATB", s, b, s.cols, s.rows)
	return SpikeMatMulATBInto(be, New(m, n), s, b)
}

// SpikeMatMulATBInto writes sᵀ·b over every element of dst [m,n], which
// may be dirty arena memory, and returns dst.
func SpikeMatMulATBInto(be compute.Backend, out *Tensor, s *SpikeTensor, b *Tensor) *Tensor {
	m, k, n := spikeMatShapes("SpikeMatMulATB", s, b, s.cols, s.rows)
	checkDst("SpikeMatMulATB", out, m, n)
	be = backendOr(be)
	clear(out.data)
	if !allFinite(b.data) {
		matMulATBAccum(be, out.data, s.DenseOn(be).data, b.data, k, m, n, true)
		return out
	}
	words := s.words
	avg := s.Count()/m + 1
	be.ParallelFor(m, grainRows(2*avg*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.data[i*n : (i+1)*n]
			wi := i >> 6
			mask := uint64(1) << (uint(i) & 63)
			for p := 0; p < k; p++ {
				if s.bits[p*words+wi]&mask != 0 {
					addRow(orow, b.data[p*n:(p+1)*n])
				}
			}
		}
	})
	return out
}

func spikeIm2colShapes(s *SpikeTensor, kh, kw int, p ConvParams) (n, c, h, w, oh, ow int) {
	p.validate()
	if s.Dims() != 4 {
		panic(fmt.Sprintf("tensor: SpikeIm2Col needs [N,C,H,W], got %v", s.shape))
	}
	n, c, h, w = s.shape[0], s.shape[1], s.shape[2], s.shape[3]
	oh, ow = p.ConvOutSize(h, kh), p.ConvOutSize(w, kw)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: SpikeIm2Col non-positive output %dx%d for input %v kernel %dx%d", oh, ow, s.shape, kh, kw))
	}
	return n, c, h, w, oh, ow
}

// spikeIm2colInto is the spike-aware im2col: it expands the packed batch
// s [N,C,H,W] into a packed column matrix of shape [N·OH·OW, C·KH·KW] —
// the transpose of the dense batched layout [C·KH·KW, N·OH·OW], so each
// output position owns one bit row of receptive-field taps and the
// product with the transposed weight matrix is a row select-accumulate.
// Out-of-bounds taps are zero bits; no floats are touched. dstBits (len
// n·oh·ow·ceil(ckk/64)) may be pooled and dirty — every word is written.
//
// The expansion is event-driven: instead of testing every receptive-
// field tap of every output position (the dense im2col's O(N·P·CKK)
// walk), it clears the destination bits and scatters only the set input
// bits, each into the ≤ KH·KW output positions whose receptive field
// covers it — O(nnz·KH·KW) work, which is what makes the packed
// expansion nearly free at the sparse corners of the (Vth, T) grid.
// Images are partitioned across workers (each image's output rows are
// a disjoint bit range); within an image, bit sets are idempotent ORs,
// so the result does not depend on scatter order.
func spikeIm2colInto(be compute.Backend, dstBits []uint64, s *SpikeTensor, kh, kw int, p ConvParams) {
	n, c, h, w, oh, ow := spikeIm2colShapes(s, kh, kw, p)
	ckk := c * kh * kw
	words := (ckk + 63) / 64
	ohow := oh * ow
	// Precomputed (input coordinate, kernel offset) → output coordinate
	// tables (−1 = no output position) keep the per-bit scatter free of
	// division and modulo; the tables are image-independent and read-only
	// across workers.
	oyTab := make([]int, h*kh)
	for iy := 0; iy < h; iy++ {
		for ki := 0; ki < kh; ki++ {
			oyTab[iy*kh+ki] = -1
			if num := iy + p.Padding - ki; num >= 0 && num%p.Stride == 0 && num/p.Stride < oh {
				oyTab[iy*kh+ki] = num / p.Stride
			}
		}
	}
	oxTab := make([]int, w*kw)
	for ix := 0; ix < w; ix++ {
		for kj := 0; kj < kw; kj++ {
			oxTab[ix*kw+kj] = -1
			if num := ix + p.Padding - kj; num >= 0 && num%p.Stride == 0 && num/p.Stride < ow {
				oxTab[ix*kw+kj] = num / p.Stride
			}
		}
	}
	be.ParallelFor(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := s.bits[i*s.words : (i+1)*s.words]
			img := dstBits[i*ohow*words : (i+1)*ohow*words]
			clear(img)
			for wi, wrd := range src {
				base := wi * 64
				for wrd != 0 {
					cidx := base + bits.TrailingZeros64(wrd)
					wrd &= wrd - 1
					ci := cidx / (h * w)
					iy := (cidx / w) % h
					ix := cidx % w
					tapBase := ci * kh * kw
					for ki := 0; ki < kh; ki++ {
						oy := oyTab[iy*kh+ki]
						if oy < 0 {
							continue
						}
						rowBase := oy * ow
						for kj := 0; kj < kw; kj++ {
							ox := oxTab[ix*kw+kj]
							if ox < 0 {
								continue
							}
							row := (rowBase + ox) * words
							tap := tapBase + ki*kw + kj
							img[row+tap>>6] |= 1 << (uint(tap) & 63)
						}
					}
				}
			}
		}
	})
}

// SpikeConv2D computes a batched 2-D convolution of a packed binary
// input on the default backend.
func SpikeConv2D(s *SpikeTensor, weight, bias *Tensor, p ConvParams) *Tensor {
	return SpikeConv2DOn(nil, s, weight, bias, p)
}

// SpikeConv2DOn is SpikeConv2DInto over a freshly allocated result.
func SpikeConv2DOn(be compute.Backend, s *SpikeTensor, weight, bias *Tensor, p ConvParams) *Tensor {
	n, _, _, _, oh, ow := spikeIm2colShapes(s, weight.shape[2], weight.shape[3], p)
	return SpikeConv2DInto(be, New(n, weight.shape[0], oh, ow), s, weight, bias, p)
}

// SpikeConv2DInto convolves the packed batch s [N,C,H,W] with weight
// [F,C,KH,KW] and optional bias [F] on be (nil selects the default
// backend), writing every element of dst [N,F,OH,OW] — which may be
// dirty arena memory — bit-identically to Conv2DOn on the dense view,
// and returns dst. The pipeline is a packed spike-im2col (bits, in
// pooled words), a pooled transpose of the weight matrix to
// [C·KH·KW, F], one select-accumulate product over the whole batch, and
// a scatter that reorders into the output layout and folds in the bias.
// Falls back to the dense pipeline when the weights are not finite
// everywhere (a skipped zero tap must propagate 0·NaN).
func SpikeConv2DInto(be compute.Backend, dst *Tensor, s *SpikeTensor, weight, bias *Tensor, p ConvParams) *Tensor {
	be = backendOr(be)
	if weight.Dims() != 4 {
		panic(fmt.Sprintf("tensor: SpikeConv2D needs 4-d weight, got %v", weight.shape))
	}
	if !allFinite(weight.data) {
		return Conv2DInto(be, dst, s.DenseOn(be), weight, bias, p)
	}
	n, c, _, _, oh, ow := spikeIm2colShapes(s, weight.shape[2], weight.shape[3], p)
	f, cw, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if c != cw {
		panic(fmt.Sprintf("tensor: SpikeConv2D channel mismatch x=%v weight=%v", s.shape, weight.shape))
	}
	if bias != nil && !bias.ShapeEquals(f) {
		panic(fmt.Sprintf("tensor: SpikeConv2D bias shape %v, want [%d]", bias.shape, f))
	}
	checkDst("SpikeConv2D", dst, n, f, oh, ow)
	ckk := c * kh * kw
	ohow := oh * ow
	rows := n * ohow
	words := (ckk + 63) / 64

	colBits := compute.GetUint64(rows * words)
	defer compute.PutUint64(colBits)
	spikeIm2colInto(be, colBits, s, kh, kw, p)

	// wt = weightᵀ in [CKK, F] layout: tap p's row is the F filter
	// coefficients the select-accumulate gathers when bit p is set.
	wt := be.Get(ckk * f)
	defer be.Put(wt)
	be.ParallelFor(ckk, grainRows(f), func(lo, hi int) {
		for q := lo; q < hi; q++ {
			drow := wt[q*f : (q+1)*f]
			for fi := 0; fi < f; fi++ {
				drow[fi] = weight.data[fi*ckk+q]
			}
		}
	})

	// prodT[j, fi] = Σ_{p set in col row j} wt[p, fi], ascending p — the
	// transpose of the dense pipeline's prod[fi, j], term for term.
	prodT := be.Get(rows * f)
	defer be.Put(prodT)
	clear(prodT)
	// Average taps per output position ≈ input density · CKK.
	avg := s.Count()*ckk/s.Len() + 1
	spikeSelectAccumInto(be, prodT, colBits, words, rows, wt, f, avg)

	be.ParallelFor(n*f, grainRows(ohow), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			i, fi := idx/f, idx%f
			out := dst.data[idx*ohow : (idx+1)*ohow]
			var bv float64
			if bias != nil {
				bv = bias.data[fi]
			}
			base := i * ohow
			for q := 0; q < ohow; q++ {
				v := prodT[(base+q)*f+fi]
				if bias != nil {
					v += bv
				}
				out[q] = v
			}
		}
	})
	return dst
}
