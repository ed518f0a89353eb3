package tensor

import (
	"fmt"
	"math/bits"

	"snnsec/internal/compute"
)

// Spike-aware pooling: the pooling windows of a packed binary plane can
// be answered from the bit representation alone. An average over a k×k
// window of 0/1 values is popcount·(1/k²) — the dense kernel's window
// sum of zeros and ones is a small exact integer, so multiplying the
// popcount by the same 1/k² reciprocal is bit-identical to it. A max
// over 0/1 values is "any bit set", and the dense kernel's
// first-on-ties argmax is the first set bit in (ky, kx) scan order (or
// the window's first element when the window is empty). Max pooling a
// binary plane is itself binary, so SpikeMaxPool2D also returns the
// pooled plane in packed form — pooled topologies keep the packed
// representation flowing instead of forcing the dense fallback behind
// every pool.
//
// Windows are not word-aligned, so a k-bit window row is extracted with
// a two-word shift (windowBits); k is limited to 64, far above any
// realistic pooling window.

// windowBits extracts width consecutive bits of a packed row starting
// at bit offset off. width must be in [1, 64]; the caller guarantees
// off+width does not run past the row's logical columns.
func windowBits(row []uint64, off, width int) uint64 {
	w := off >> 6
	sh := uint(off & 63)
	v := row[w] >> sh
	if sh+uint(width) > 64 {
		v |= row[w+1] << (64 - sh)
	}
	if width == 64 {
		return v
	}
	return v & (1<<uint(width) - 1)
}

func spikePoolCheck(op string, s *SpikeTensor, k int) (n, c, h, w int) {
	if s.Dims() != 4 {
		panic(fmt.Sprintf("tensor: %s needs [N,C,H,W], got %v", op, s.shape))
	}
	if k <= 0 || k > 64 {
		panic(fmt.Sprintf("tensor: %s window %d out of [1,64]", op, k))
	}
	n, c, h, w = s.shape[0], s.shape[1], s.shape[2], s.shape[3]
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("tensor: %s input %dx%d not divisible by window %d", op, h, w, k))
	}
	return n, c, h, w
}

// SpikeAvgPool2D is SpikeAvgPool2DOn on the default backend.
func SpikeAvgPool2D(s *SpikeTensor, k int) *Tensor { return SpikeAvgPool2DOn(nil, s, k) }

// SpikeAvgPool2DOn performs non-overlapping k×k average pooling over a
// packed [N,C,H,W] spike plane by popcounting each window, bit-identical
// to AvgPool2DOn on the dense view.
func SpikeAvgPool2DOn(be compute.Backend, s *SpikeTensor, k int) *Tensor {
	n, c, h, w := spikePoolCheck("SpikeAvgPool2D", s, k)
	return SpikeAvgPool2DInto(be, New(n, c, h/k, w/k), s, k)
}

// SpikeAvgPool2DInto writes the pooled planes over every element of out
// [N,C,H/k,W/k], which may be dirty arena memory, and returns out.
func SpikeAvgPool2DInto(be compute.Backend, out *Tensor, s *SpikeTensor, k int) *Tensor {
	n, c, h, w := spikePoolCheck("SpikeAvgPool2D", s, k)
	oh, ow := h/k, w/k
	checkDst("SpikeAvgPool2D", out, n, c, oh, ow)
	inv := 1 / float64(k*k)
	backendOr(be).ParallelFor(n*c, grainRows(h*w), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			img, ch := i/c, i%c
			row := s.bits[img*s.words : (img+1)*s.words]
			base := ch * h * w
			dst := out.data[i*oh*ow : (i+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					count := 0
					for ky := 0; ky < k; ky++ {
						count += bits.OnesCount64(windowBits(row, base+(oy*k+ky)*w+ox*k, k))
					}
					dst[oy*ow+ox] = float64(count) * inv
				}
			}
		}
	})
	return out
}

// SpikeMaxPool2D is SpikeMaxPool2DOn on the default backend.
func SpikeMaxPool2D(s *SpikeTensor, k int) (*Tensor, []int, *SpikeTensor) {
	return SpikeMaxPool2DOn(nil, s, k)
}

// SpikeMaxPool2DOn performs non-overlapping k×k max pooling over a
// packed [N,C,H,W] spike plane. It returns the pooled tensor and flat
// per-plane argmax indices bit-identical to MaxPool2DOn on the dense
// view, plus the pooled plane in packed form (max of a binary window is
// binary) so a pool downstream can read bits too.
func SpikeMaxPool2DOn(be compute.Backend, s *SpikeTensor, k int) (*Tensor, []int, *SpikeTensor) {
	n, c, h, w := spikePoolCheck("SpikeMaxPool2D", s, k)
	oh, ow := h/k, w/k
	out := New(n, c, oh, ow)
	arg := make([]int, n*c*oh*ow)
	ocols := c * oh * ow
	owords := (ocols + 63) / 64
	sp := &SpikeTensor{
		shape:  []int{n, c, oh, ow},
		rows:   n,
		cols:   ocols,
		words:  owords,
		bits:   make([]uint64, n*owords),
		counts: make([]int, n),
	}
	// Each worker owns whole batch rows, so the packed output words it
	// writes are disjoint from every other worker's.
	backendOr(be).ParallelFor(n, grainRows(c*h*w), func(lo, hi int) {
		for img := lo; img < hi; img++ {
			row := s.bits[img*s.words : (img+1)*s.words]
			obits := sp.bits[img*owords : (img+1)*owords]
			count := 0
			for ch := 0; ch < c; ch++ {
				base := ch * h * w
				plane := img*c + ch
				dst := out.data[plane*oh*ow : (plane+1)*oh*ow]
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						// Dense semantics: best seeds from the window's
						// first element, strictly-greater wins — on 0/1
						// values the argmax is the first set bit in
						// (ky, kx) order, or the window start if empty.
						bestIdx := oy*k*w + ox*k
						hit := false
						for ky := 0; ky < k; ky++ {
							wb := windowBits(row, base+(oy*k+ky)*w+ox*k, k)
							if wb != 0 {
								bestIdx = (oy*k+ky)*w + ox*k + bits.TrailingZeros64(wb)
								hit = true
								break
							}
						}
						oidx := oy*ow + ox
						arg[plane*oh*ow+oidx] = bestIdx
						if hit {
							dst[oidx] = 1
							ob := ch*oh*ow + oidx
							obits[ob>>6] |= 1 << uint(ob&63)
							count++
						}
					}
				}
			}
			sp.counts[img] = count
		}
	})
	return out, arg, sp
}
