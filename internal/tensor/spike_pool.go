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
// binary plane is itself binary, so SpikeMaxPool2DOn also returns the
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

// SpikeAvgPool2DInto writes the pooled planes over every element of out
// [N,C,H/k,W/k], which may be dirty arena memory, and returns out.
//
// A 2×2 pool over rows of at most 64 bits counts a whole band of windows
// at once: the band's two input rows are extracted once, adjacent bit
// pairs are summed SWAR-style into 2-bit fields, and the two rows' pair
// sums are added into 4-bit fields — window 2q's count in nibble q of one
// word, window 2q+1's in nibble q of another — so every window count
// (0..4) is a nibble read. The window loop, one popcount per window row,
// runs every other k and wider rows.
func SpikeAvgPool2DInto(be compute.Backend, out *Tensor, s *SpikeTensor, k int) *Tensor {
	n, c, h, w := spikePoolCheck("SpikeAvgPool2D", s, k)
	oh, ow := h/k, w/k
	checkDst("SpikeAvgPool2D", out, n, c, oh, ow)
	inv := 1 / float64(k*k)
	backendOr(be).ParallelFor(n*c, grainRows(h*w), func(lo, hi int) {
		// avg[q] is the stored float of a window count q: the same
		// float64(count)*inv the window loop computes.
		var avg [5]float64
		for q := range avg {
			avg[q] = float64(q) * inv
		}
		for i := lo; i < hi; i++ {
			img, ch := i/c, i%c
			row := s.bits[img*s.words : (img+1)*s.words]
			base := ch * h * w
			dst := out.data[i*oh*ow : (i+1)*oh*ow]
			if k == 2 && w <= 64 {
				const m1, m2 = 0x5555555555555555, 0x3333333333333333
				for oy := 0; oy < oh; oy++ {
					r0 := windowBits(row, base+2*oy*w, w)
					r1 := windowBits(row, base+(2*oy+1)*w, w)
					p0 := r0&m1 + r0>>1&m1 // pair sums, 2-bit fields
					p1 := r1&m1 + r1>>1&m1
					even := p0&m2 + p1&m2 // window 2q's count at bit 4q
					odd := p0>>2&m2 + p1>>2&m2
					drow := dst[oy*ow : (oy+1)*ow]
					ox := 0
					for ; ox+1 < len(drow); ox += 2 {
						drow[ox] = avg[even>>(2*ox)&15]
						drow[ox+1] = avg[odd>>(2*ox)&15]
					}
					if ox < len(drow) {
						drow[ox] = avg[even>>(2*ox)&15]
					}
				}
				continue
			}
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
