package tensor

import (
	"fmt"

	"snnsec/internal/compute"
)

// AvgPool2DInto writes the pooled planes over every element of out
// [N,C,H/k,W/k], which may be dirty arena memory, and returns out.
func AvgPool2DInto(be compute.Backend, out, x *Tensor, k int) *Tensor {
	n, c, h, w := poolCheck("AvgPool2D", x, k)
	oh, ow := h/k, w/k
	checkDst("AvgPool2D", out, n, c, oh, ow)
	inv := 1 / float64(k*k)
	backendOr(be).ParallelFor(n*c, grainRows(h*w), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := x.data[i*h*w : (i+1)*h*w]
			dst := out.data[i*oh*ow : (i+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float64
					for ky := 0; ky < k; ky++ {
						row := src[(oy*k+ky)*w+ox*k:]
						for kx := 0; kx < k; kx++ {
							s += row[kx]
						}
					}
					dst[oy*ow+ox] = s * inv
				}
			}
		}
	})
	return out
}

// AvgPool2DBackwardInto writes the input gradient over every element of
// dx [N,C,H,W], which may be dirty arena memory, and returns dx. Each
// element is stored as 0 + g — the bits accumulating g into a zeroed
// tensor leaves, so a −0 gradient arrives as +0.
func AvgPool2DBackwardInto(be compute.Backend, dx, gout *Tensor, k int) *Tensor {
	if gout.Dims() != 4 || !dx.ShapeEquals(gout.shape[0], gout.shape[1], gout.shape[2]*k, gout.shape[3]*k) {
		panic(fmt.Sprintf("tensor: AvgPool2DBackward size mismatch out=%v k=%d in=%v", gout.shape, k, dx.shape))
	}
	n, c, oh, ow := gout.shape[0], gout.shape[1], gout.shape[2], gout.shape[3]
	h, w := oh*k, ow*k
	backendOr(be).ParallelFor(n*c, grainRows(h*w), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src, dst := gout.data[i*oh*ow:(i+1)*oh*ow], dx.data[i*h*w:(i+1)*h*w]
			if k == 2 {
				avgPoolBackward2Plane(dst, src, ow)
			} else {
				avgPoolBackwardPlane(dst, src, k, ow)
			}
		}
	})
	return dx
}

// avgPoolBackwardPlane spreads one plane's gradient src [oh, ow] over
// its k×k windows in dst [oh·k, ow·k].
func avgPoolBackwardPlane(dst, src []float64, k, ow int) {
	inv, w := 1/float64(k*k), ow*k
	for oy := 0; oy < len(src)/ow; oy++ {
		for ox := 0; ox < ow; ox++ {
			g := 0 + src[oy*ow+ox]*inv
			for ky := 0; ky < k; ky++ {
				row := dst[(oy*k+ky)*w+ox*k:]
				for kx := 0; kx < k; kx++ {
					row[kx] = g
				}
			}
		}
	}
}

// avgPoolBackward2Plane is avgPoolBackwardPlane for k = 2: it writes each
// even output row from the same expression and copies it into the odd
// row below.
func avgPoolBackward2Plane(dst, src []float64, ow int) {
	const inv = 1.0 / 4
	w := 2 * ow
	for oy := 0; oy < len(src)/ow; oy++ {
		row := dst[2*oy*w:][:w]
		for ox, v := range src[oy*ow:][:ow] {
			g := 0 + v*inv
			row[2*ox], row[2*ox+1] = g, g
		}
		copy(dst[(2*oy+1)*w:][:w], row)
	}
}

// MaxPool2DOn returns the k×k max pool of x [N,C,H,W] on be (nil
// selects the default backend) and, per output, the flat input index of
// its maximum (first on ties).
func MaxPool2DOn(be compute.Backend, x *Tensor, k int) (*Tensor, []int) {
	n, c, h, w := poolCheck("MaxPool2D", x, k)
	oh, ow := h/k, w/k
	out := New(n, c, oh, ow)
	arg := make([]int, n*c*oh*ow)
	backendOr(be).ParallelFor(n*c, grainRows(h*w), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := x.data[i*h*w : (i+1)*h*w]
			dst := out.data[i*oh*ow : (i+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := src[oy*k*w+ox*k]
					bestIdx := oy*k*w + ox*k
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							idx := (oy*k+ky)*w + ox*k + kx
							if src[idx] > best {
								best = src[idx]
								bestIdx = idx
							}
						}
					}
					dst[oy*ow+ox] = best
					arg[i*oh*ow+oy*ow+ox] = bestIdx
				}
			}
		}
	})
	return out, arg
}

// MaxPool2DBackwardOn routes gout back to the argmax positions arg of
// the forward pool on be (nil selects the default backend) and returns
// the [N,C,H,W] input gradient.
func MaxPool2DBackwardOn(be compute.Backend, gout *Tensor, arg []int, k, h, w int) *Tensor {
	n, c, oh, ow := gout.shape[0], gout.shape[1], gout.shape[2], gout.shape[3]
	if oh*k != h || ow*k != w {
		panic(fmt.Sprintf("tensor: MaxPool2DBackward size mismatch out=%dx%d k=%d in=%dx%d", oh, ow, k, h, w))
	}
	if len(arg) != n*c*oh*ow {
		panic(fmt.Sprintf("tensor: MaxPool2DBackward argmax length %d, want %d", len(arg), n*c*oh*ow))
	}
	dx := New(n, c, h, w)
	backendOr(be).ParallelFor(n*c, grainRows(h*w), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := gout.data[i*oh*ow : (i+1)*oh*ow]
			dst := dx.data[i*h*w : (i+1)*h*w]
			for j, g := range src {
				dst[arg[i*oh*ow+j]] += g
			}
		}
	})
	return dx
}

func poolCheck(op string, x *Tensor, k int) (n, c, h, w int) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: %s needs [N,C,H,W], got %v", op, x.shape))
	}
	if k <= 0 {
		panic(fmt.Sprintf("tensor: %s window must be positive, got %d", op, k))
	}
	n, c, h, w = x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("tensor: %s input %dx%d not divisible by window %d", op, h, w, k))
	}
	return n, c, h, w
}
