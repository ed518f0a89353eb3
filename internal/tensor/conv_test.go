package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveConv2D is a direct reference implementation used to validate the
// batched convolution.
func naiveConv2D(x, w, b *Tensor, p ConvParams) *Tensor {
	n, c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	f, _, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	oh, ow := p.ConvOutSize(h, kh), p.ConvOutSize(wd, kw)
	out := New(n, f, oh, ow)
	for i := 0; i < n; i++ {
		for fi := 0; fi < f; fi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float64
					for ci := 0; ci < c; ci++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy := oy*p.Stride + ky - p.Padding
								ix := ox*p.Stride + kx - p.Padding
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								s += x.At(i, ci, iy, ix) * w.At(fi, ci, ky, kx)
							}
						}
					}
					if b != nil {
						s += b.At(fi)
					}
					out.Set(s, i, fi, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConvOutSize(t *testing.T) {
	p := ConvParams{Stride: 1, Padding: 2}
	if got := p.ConvOutSize(28, 5); got != 28 {
		t.Errorf("ConvOutSize(28,5,pad2) = %d, want 28", got)
	}
	p2 := ConvParams{Stride: 2, Padding: 0}
	if got := p2.ConvOutSize(8, 2); got != 4 {
		t.Errorf("ConvOutSize(8,2,s2) = %d, want 4", got)
	}
}

func TestConv2DMatchesNaive(t *testing.T) {
	r := NewRand(10, 20)
	cases := []struct {
		n, c, h, w, f, k int
		p                ConvParams
	}{
		{1, 1, 5, 5, 1, 3, ConvParams{Stride: 1, Padding: 0}},
		{2, 3, 8, 8, 4, 3, ConvParams{Stride: 1, Padding: 1}},
		{2, 2, 9, 7, 3, 3, ConvParams{Stride: 2, Padding: 1}},
		{1, 1, 6, 6, 2, 5, ConvParams{Stride: 1, Padding: 2}},
	}
	for _, tc := range cases {
		x := RandN(r, 0, 1, tc.n, tc.c, tc.h, tc.w)
		w := RandN(r, 0, 1, tc.f, tc.c, tc.k, tc.k)
		b := RandN(r, 0, 1, tc.f)
		got := Conv2DOn(nil, x, w, b, tc.p)
		want := naiveConv2D(x, w, b, tc.p)
		if !got.AllClose(want, 1e-9) {
			t.Errorf("Conv2D mismatch for case %+v", tc)
		}
	}
}

func TestConv2DNilBias(t *testing.T) {
	r := NewRand(11, 21)
	x := RandN(r, 0, 1, 1, 2, 6, 6)
	w := RandN(r, 0, 1, 3, 2, 3, 3)
	p := ConvParams{Stride: 1, Padding: 1}
	got := Conv2DOn(nil, x, w, nil, p)
	want := naiveConv2D(x, w, nil, p)
	if !got.AllClose(want, 1e-9) {
		t.Error("Conv2D nil-bias mismatch")
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1x1 kernel of value 1 with a single channel is the identity.
	r := NewRand(12, 22)
	x := RandN(r, 0, 1, 2, 1, 4, 4)
	w := Ones(1, 1, 1, 1)
	got := Conv2DOn(nil, x, w, nil, ConvParams{Stride: 1})
	if !got.AllClose(x, 1e-12) {
		t.Error("1x1 identity convolution altered input")
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <im2col(x), y> == <x, col2im(y)> — the defining property of adjoint
	// operators; this is exactly what backprop relies on.
	f := func(seed uint64) bool {
		r := NewRand(seed, 77)
		c, h, w, k := 2, 6, 5, 3
		p := ConvParams{Stride: 1, Padding: 1}
		ohow := p.ConvOutSize(h, k) * p.ConvOutSize(w, k)
		x := RandN(r, 0, 1, c, h, w)
		col := New(c*k*k, ohow)
		im2colInto(col.data, x.data, c, h, w, k, k, p)
		y := RandN(r, 0, 1, col.Dim(0), col.Dim(1))
		lhs := Dot(col, y)
		xt := New(c, h, w)
		col2imAddInto(xt.data, y.data, ohow, c, h, w, k, k, p, true)
		rhs := Dot(x, xt)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// numericalConvGrad checks Conv2DBackward against finite differences of a
// scalar loss L = sum(conv(x, w, b) * g).
func TestConv2DBackwardNumerical(t *testing.T) {
	r := NewRand(13, 23)
	p := ConvParams{Stride: 1, Padding: 1}
	x := RandN(r, 0, 1, 1, 2, 5, 5)
	w := RandN(r, 0, 1, 2, 2, 3, 3)
	b := RandN(r, 0, 1, 2)
	out := Conv2DOn(nil, x, w, b, p)
	g := RandN(r, 0, 1, out.Shape()...)

	loss := func() float64 { return Dot(Conv2DOn(nil, x, w, b, p), g) }

	dx, dw, db := Conv2DBackwardOn(nil, x, w, g, p, true)
	const eps = 1e-6
	check := func(name string, param, grad *Tensor) {
		for i := 0; i < param.Len(); i += 7 { // subsample for speed
			old := param.Data()[i]
			param.Data()[i] = old + eps
			lp := loss()
			param.Data()[i] = old - eps
			lm := loss()
			param.Data()[i] = old
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-grad.Data()[i]) > 1e-5*(1+math.Abs(num)) {
				t.Errorf("%s grad[%d]: numerical %v vs analytic %v", name, i, num, grad.Data()[i])
			}
		}
	}
	check("x", x, dx)
	check("w", w, dw)
	check("b", b, db)
}

func TestConv2DBackwardStride2(t *testing.T) {
	r := NewRand(14, 24)
	p := ConvParams{Stride: 2, Padding: 1}
	x := RandN(r, 0, 1, 2, 1, 7, 7)
	w := RandN(r, 0, 1, 3, 1, 3, 3)
	out := Conv2DOn(nil, x, w, nil, p)
	g := RandN(r, 0, 1, out.Shape()...)
	dx, dw, db := Conv2DBackwardOn(nil, x, w, g, p, false)
	if db != nil {
		t.Error("dbias should be nil when hasBias is false")
	}
	loss := func() float64 { return Dot(Conv2DOn(nil, x, w, nil, p), g) }
	const eps = 1e-6
	for i := 0; i < x.Len(); i += 11 {
		old := x.Data()[i]
		x.Data()[i] = old + eps
		lp := loss()
		x.Data()[i] = old - eps
		lm := loss()
		x.Data()[i] = old
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data()[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("dx[%d]: numerical %v vs analytic %v", i, num, dx.Data()[i])
		}
	}
	for i := 0; i < w.Len(); i += 5 {
		old := w.Data()[i]
		w.Data()[i] = old + eps
		lp := loss()
		w.Data()[i] = old - eps
		lm := loss()
		w.Data()[i] = old
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dw.Data()[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("dw[%d]: numerical %v vs analytic %v", i, num, dw.Data()[i])
		}
	}
}

func TestConv2DChannelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("channel mismatch did not panic")
		}
	}()
	Conv2DOn(nil, New(1, 2, 4, 4), New(1, 3, 3, 3), nil, ConvParams{Stride: 1})
}

func TestAvgPool2DKnown(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	got := avgPool2D(nil, x, 2)
	want := FromSlice([]float64{3.5, 5.5, 11.5, 13.5}, 1, 1, 2, 2)
	if !got.AllClose(want, 1e-12) {
		t.Errorf("AvgPool2D = %v, want %v", got, want)
	}
}

func TestAvgPoolBackwardNumerical(t *testing.T) {
	r := NewRand(15, 25)
	x := RandN(r, 0, 1, 2, 2, 4, 4)
	out := avgPool2D(nil, x, 2)
	g := RandN(r, 0, 1, out.Shape()...)
	dx := avgPool2DBackward(nil, g, 2)
	loss := func() float64 { return Dot(avgPool2D(nil, x, 2), g) }
	const eps = 1e-6
	for i := 0; i < x.Len(); i += 3 {
		old := x.Data()[i]
		x.Data()[i] = old + eps
		lp := loss()
		x.Data()[i] = old - eps
		lm := loss()
		x.Data()[i] = old
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data()[i]) > 1e-6 {
			t.Errorf("avgpool dx[%d]: numerical %v vs analytic %v", i, num, dx.Data()[i])
		}
	}
}

func TestPoolBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pool with indivisible window did not panic")
		}
	}()
	avgPool2D(nil, New(1, 1, 5, 5), 2)
}

// Property: average pooling preserves the total sum scaled by window area.
func TestAvgPoolSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed, 31)
		x := RandN(r, 0, 1, 1, 2, 6, 6)
		y := avgPool2D(nil, x, 2)
		return math.Abs(Sum(x)-Sum(y)*4) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
