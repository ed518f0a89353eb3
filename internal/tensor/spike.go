package tensor

import (
	"fmt"
	"math/bits"

	"snnsec/internal/compute"
)

// Spike-plane engine: binary activations stored one bit per element.
//
// Every layer input inside the SNN's BPTT loop is a spike matrix — a
// tensor whose elements are exactly 0 or 1. SpikeTensor stores that
// binary plane packed 64 elements per word with a per-row popcount
// index. The packed form is what the producers emit (the LIF step and
// the Poisson encoder pack while they threshold), what the pooling
// kernels read (a window's sum or max is a popcount or an any-bit test,
// spike_pool.go), and the stream binner's wire format (event.go), at
// 1/64 of the dense plane's memory.
//
// A synapse — a convolution or a matmul over a plane — has one kernel,
// the dense one: at the densities the networks run (6–25 %) the AVX
// panel beats a kernel that skips zeros (EXPERIMENTS.md, "Spike synapse
// kernels: measured, removed"). SpikeConv2DOn and SpikeMatMulOn are that
// kernel behind an unpack into pooled scratch, so they are bit-identical
// to Conv2DOn/MatMulOn on the dense view by construction, NaN and Inf
// propagation included.

// SpikeTensor is a bit-packed binary tensor: element (r, c) of the
// logical [rows, cols] view — rows is the leading dimension, cols the
// product of the rest — is bit c&63 of word bits[r*words + c>>6]. Each
// row starts on a word boundary so rows can be packed, unpacked and
// gathered independently. counts[r] caches the popcount of row r.
//
// A SpikeTensor is immutable after construction.
type SpikeTensor struct {
	shape  []int
	rows   int
	cols   int
	words  int // words per row: ceil(cols/64)
	bits   []uint64
	counts []int
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

// PackSpikesOn packs t on be (nil selects the default backend). Every
// element must be exactly 0 or 1 — a plane stands for the 0/1 tensor it
// unpacks to — and the pack panics otherwise. Rows are packed in
// parallel; each row owns a disjoint word range.
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

// ensureCounts materialises the per-row popcount index on first use. It
// is not synchronised (tape-owned tensors are used from one goroutine).
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
// (e.g. the LIF step packs while it thresholds) into a
// SpikeTensor. bits must hold rows·ceil(cols/64) words in the row-
// aligned layout (unused tail bits of each row's last word zero), and
// counts, when non-nil, the per-row popcounts; both are used directly,
// not copied. The caller vouches that the bits match the 0/1 plane it
// is packing — the pooling kernels' bit-identity contract rests on that.
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
	return &out
}

// DenseInto writes the dense 0/1 view over every element of dst — which
// must have the plane's shape and may be dirty arena memory — on be and
// returns dst.
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

// SpikeMatMulOn returns s·b computed on be (nil selects the default
// backend): MatMulInto on the plane's dense view, unpacked into pooled
// scratch for the one call.
func SpikeMatMulOn(be compute.Backend, s *SpikeTensor, b *Tensor) *Tensor {
	if b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SpikeMatMul needs 2-d operands, got %v x %v", s.shape, b.shape))
	}
	be = backendOr(be)
	a := s.DenseInto(be, FromSlice(be.Get(s.Len()), s.shape...))
	defer be.Put(a.data)
	return MatMulInto(be, New(s.rows, b.shape[1]), a, b)
}

// SpikeConv2DOn convolves the packed batch s [N,C,H,W] with weight
// [F,C,KH,KW] and optional bias [F] on be (nil selects the default
// backend) into a fresh [N,F,OH,OW]: Conv2DInto on the plane's dense
// view, unpacked into pooled scratch for the one call.
func SpikeConv2DOn(be compute.Backend, s *SpikeTensor, weight, bias *Tensor, p ConvParams) *Tensor {
	if s.Dims() != 4 || weight.Dims() != 4 {
		panic(fmt.Sprintf("tensor: SpikeConv2D needs [N,C,H,W] input and 4-d weight, got %v and %v", s.shape, weight.shape))
	}
	oh, ow := p.ConvOutSize(s.shape[2], weight.shape[2]), p.ConvOutSize(s.shape[3], weight.shape[3])
	be = backendOr(be)
	x := s.DenseInto(be, FromSlice(be.Get(s.Len()), s.shape...))
	defer be.Put(x.data)
	return Conv2DInto(be, New(s.shape[0], weight.shape[0], oh, ow), x, weight, bias, p)
}
