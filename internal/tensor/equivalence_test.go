package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"snnsec/internal/compute"
)

// The backend contract promises bit-identical results from the Serial and
// Parallel backends for every kernel. These property-style tests sweep
// awkward shapes — n smaller than the worker count, n=1, sizes that do not
// divide the grain or the width — and compare element-for-element with ==.

// parallelWidths includes a width larger than any tested dimension so the
// "more workers than rows" path is always exercised.
var parallelWidths = []int{2, 3, 16}

func assertIdentical(t *testing.T, name string, want, got *Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v vs %v", name, want.Shape(), got.Shape())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		same := wd[i] == gd[i] || (math.IsNaN(wd[i]) && math.IsNaN(gd[i]))
		if !same {
			t.Fatalf("%s: element %d differs: serial %v, parallel %v", name, i, wd[i], gd[i])
		}
	}
}

func forEachParallel(t *testing.T, f func(t *testing.T, be compute.Backend)) {
	t.Helper()
	for _, w := range parallelWidths {
		f(t, compute.NewParallel(w))
	}
}

func TestMatMulEquivalence(t *testing.T) {
	r := NewRand(11, 17)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 7, 3}, {2, 3, 2}, {5, 4, 7}, {17, 9, 13}, {33, 65, 31},
	}
	ser := compute.Serial{}
	for _, s := range shapes {
		a := RandN(r, 0, 1, s.m, s.k)
		b := RandN(r, 0, 1, s.k, s.n)
		// Sprinkle zeros into a: rows with zeros run the same kernels.
		for i := 0; i < a.Len(); i += 3 {
			a.Data()[i] = 0
		}
		want := MatMulOn(ser, a, b)
		forEachParallel(t, func(t *testing.T, be compute.Backend) {
			assertIdentical(t, "MatMul", want, MatMulOn(be, a, b))
		})

		at := transpose2D(a)
		wantATB := matMulATB(ser, at, b)
		forEachParallel(t, func(t *testing.T, be compute.Backend) {
			assertIdentical(t, "MatMulATB", wantATB, matMulATB(be, at, b))
		})

		bt := transpose2D(b)
		wantABT := matMulABT(ser, a, bt)
		forEachParallel(t, func(t *testing.T, be compute.Backend) {
			assertIdentical(t, "MatMulABT", wantABT, matMulABT(be, a, bt))
		})
	}
}

// TestMatMulNaNPropagation pins that no kernel swallows NaN/Inf coming
// from the other operand — 0·NaN is NaN, so a NaN anywhere in b must
// poison the affected output elements even when a's coefficient is zero.
func TestMatMulNaNPropagation(t *testing.T) {
	a := FromSlice([]float64{0, 0, 1, 2}, 2, 2) // first row all zeros
	b := FromSlice([]float64{math.NaN(), 1, 2, 3}, 2, 2)
	for _, be := range []compute.Backend{compute.Serial{}, compute.NewParallel(4)} {
		out := MatMulOn(be, a, b)
		// out[0,0] = 0·NaN + 0·2 must be NaN.
		if !math.IsNaN(out.At(0, 0)) {
			t.Fatalf("MatMul swallowed NaN under a zero coefficient: got %v", out.At(0, 0))
		}
		outATB := matMulATB(be, transpose2D(a), b)
		if !math.IsNaN(outATB.At(0, 0)) {
			t.Fatalf("MatMulATB swallowed NaN: got %v", outATB.At(0, 0))
		}
	}
	// +Inf must poison through a zero coefficient too (0·Inf = NaN).
	binf := FromSlice([]float64{math.Inf(1), 1, 2, 3}, 2, 2)
	out := MatMulOn(nil, a, binf)
	if !math.IsNaN(out.At(0, 0)) {
		t.Fatalf("MatMul swallowed Inf under a zero coefficient: got %v", out.At(0, 0))
	}
}

func TestConvEquivalence(t *testing.T) {
	r := NewRand(5, 23)
	ser := compute.Serial{}
	cases := []struct {
		n, c, h, w, f, k int
		p                ConvParams
	}{
		{1, 1, 5, 5, 1, 3, ConvParams{Stride: 1, Padding: 1}},
		{2, 3, 7, 9, 4, 3, ConvParams{Stride: 2, Padding: 1}},
		{5, 2, 8, 8, 3, 5, ConvParams{Stride: 1, Padding: 2}},
		{3, 1, 16, 16, 6, 5, ConvParams{Stride: 1, Padding: 0}},
	}
	for _, cs := range cases {
		x := RandN(r, 0, 1, cs.n, cs.c, cs.h, cs.w)
		wt := RandN(r, 0, 1, cs.f, cs.c, cs.k, cs.k)
		bias := RandN(r, 0, 1, cs.f)
		oh := cs.p.ConvOutSize(cs.h, cs.k)
		ow := cs.p.ConvOutSize(cs.w, cs.k)
		gout := RandN(r, 0, 1, cs.n, cs.f, oh, ow)

		want := Conv2DOn(ser, x, wt, bias, cs.p)
		wdx, wdw, wdb := Conv2DBackwardOn(ser, x, wt, gout, cs.p, true)
		forEachParallel(t, func(t *testing.T, be compute.Backend) {
			assertIdentical(t, "Conv2D", want, Conv2DOn(be, x, wt, bias, cs.p))
			dx, dw, db := Conv2DBackwardOn(be, x, wt, gout, cs.p, true)
			assertIdentical(t, "Conv2DBackward dx", wdx, dx)
			assertIdentical(t, "Conv2DBackward dw", wdw, dw)
			assertIdentical(t, "Conv2DBackward db", wdb, db)
		})
	}
}

func TestPoolEquivalence(t *testing.T) {
	r := NewRand(7, 29)
	ser := compute.Serial{}
	cases := []struct{ n, c, h, w, k int }{
		{1, 1, 2, 2, 2}, {2, 3, 4, 4, 2}, {5, 2, 6, 6, 3}, {3, 7, 8, 8, 2},
	}
	for _, cs := range cases {
		x := RandN(r, 0, 1, cs.n, cs.c, cs.h, cs.w)
		gout := RandN(r, 0, 1, cs.n, cs.c, cs.h/cs.k, cs.w/cs.k)

		wantAvg := avgPool2D(ser, x, cs.k)
		wantAvgBack := avgPool2DBackward(ser, gout, cs.k)
		forEachParallel(t, func(t *testing.T, be compute.Backend) {
			assertIdentical(t, "AvgPool2D", wantAvg, avgPool2D(be, x, cs.k))
			assertIdentical(t, "AvgPool2DBackward", wantAvgBack, avgPool2DBackward(be, gout, cs.k))
		})
	}
}

// TestAvgPoolBackward2MatchesGeneric pins the 2×2 average-pool backward
// — each even row written, then copied into the odd row below — bit for
// bit against the k-generic loop, into NaN-filled destinations on Serial
// and Parallel(2), with −0, NaN, ±Inf and denormals in gout (a −0
// gradient must still arrive as +0).
func TestAvgPoolBackward2MatchesGeneric(t *testing.T) {
	r := NewRand(127, 131)
	for _, sh := range [][4]int{{1, 1, 1, 1}, {2, 3, 4, 5}, {32, 6, 8, 8}} {
		gout := RandN(r, 0, 1, sh[:]...)
		for i, v := range []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 0} {
			gout.Data()[(i*7)%gout.Len()] = v
		}
		want := Full(math.NaN(), sh[0], sh[1], 2*sh[2], 2*sh[3])
		for p := 0; p < sh[0]*sh[1]; p++ {
			plane := sh[2] * sh[3]
			avgPoolBackwardPlane(want.data[4*p*plane:][:4*plane], gout.data[p*plane:][:plane], 2, sh[3])
		}
		for bi, be := range []compute.Backend{compute.Serial{}, compute.NewParallel(2)} {
			got := AvgPool2DBackwardInto(be, Full(math.NaN(), want.Shape()...), gout, 2)
			assertSameBits(t, fmt.Sprintf("AvgPool2DBackward k=2 %v backend %d", sh, bi), want, got)
		}
	}
}

func TestReduceAndElementwiseEquivalence(t *testing.T) {
	r := NewRand(3, 31)
	ser := compute.Serial{}
	for _, rows := range []int{1, 2, 7, 33} {
		for _, cols := range []int{1, 5, 17} {
			a := RandN(r, 0, 1, rows, cols)
			b := RandN(r, 0, 1, rows, cols)
			wantSoftmax := softmaxRows(ser, a)
			wantSum := SumRowsInto(ser, New(cols), a)
			wantArg := ArgmaxRowsOn(ser, a)
			wantAdd := a.Clone()
			AddIntoOn(ser, wantAdd, b)
			forEachParallel(t, func(t *testing.T, be compute.Backend) {
				assertIdentical(t, "SoftmaxRows", wantSoftmax, softmaxRows(be, a))
				assertIdentical(t, "SumRows", wantSum, SumRowsInto(be, New(cols), a))
				for i, w := range wantArg {
					if got := ArgmaxRowsOn(be, a)[i]; got != w {
						t.Fatalf("ArgmaxRows row %d: %d vs %d", i, w, got)
					}
				}
				gotAdd := a.Clone()
				AddIntoOn(be, gotAdd, b)
				assertIdentical(t, "AddInto", wantAdd, gotAdd)
			})
		}
	}
}

// TestConcurrentBackendUse drives one shared Parallel backend from many
// goroutines at once; run under -race this checks the worker pool and the
// buffer pool for data races, and the output check ensures results stay
// deterministic under contention.
func TestConcurrentBackendUse(t *testing.T) {
	r := NewRand(13, 37)
	a := RandN(r, 0, 1, 31, 17)
	b := RandN(r, 0, 1, 17, 23)
	x := RandN(r, 0, 1, 3, 2, 8, 8)
	w := RandN(r, 0, 1, 4, 2, 3, 3)
	p := ConvParams{Stride: 1, Padding: 1}
	want := MatMulOn(compute.Serial{}, a, b)
	wantConv := Conv2DOn(compute.Serial{}, x, w, nil, p)

	be := compute.NewParallel(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got := MatMulOn(be, a, b)
				gotConv := Conv2DOn(be, x, w, nil, p)
				if !got.AllClose(want, 0) || !gotConv.AllClose(wantConv, 0) {
					t.Error("concurrent backend use produced a different result")
					return
				}
			}
		}()
	}
	wg.Wait()
}
