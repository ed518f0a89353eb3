package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 {
		t.Fatalf("Len = %d, want 6", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2, 0) did not panic")
		}
	}()
	New(2, 0)
}

func TestFromSliceAndAt(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v, want 1", got)
	}
	if got := x.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	x.Set(9, 1, 0)
	if got := x.At(1, 0); got != 9 {
		t.Errorf("after Set, At(1,0) = %v, want 9", got)
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	x.At(2, 0)
}

func TestScalar(t *testing.T) {
	s := Full(3.5)
	if s.Dims() != 0 {
		t.Errorf("Dims = %d, want 0", s.Dims())
	}
	if s.Item() != 3.5 {
		t.Errorf("Item = %v, want 3.5", s.Item())
	}
}

func TestItemPanicsOnMultiElement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Item on 4-element tensor did not panic")
		}
	}()
	New(2, 2).Item()
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 99
	if x.At(0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 1)
	if x.At(0, 1) != 42 {
		t.Error("Reshape does not share data")
	}
	if !y.ShapeEquals(3, 2) {
		t.Errorf("reshaped shape = %v", y.Shape())
	}
}

func TestReshapeInfer(t *testing.T) {
	x := New(4, 6)
	y := x.Reshape(2, -1)
	if !y.ShapeEquals(2, 12) {
		t.Errorf("inferred shape = %v, want [2 12]", y.Shape())
	}
	z := x.Reshape(-1)
	if !z.ShapeEquals(24) {
		t.Errorf("inferred shape = %v, want [24]", z.Shape())
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestReshapeDoubleInferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double -1 reshape did not panic")
		}
	}()
	New(2, 3).Reshape(-1, -1)
}

func TestSliceAndSetSlice(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	s := x.Slice(1)
	if !s.ShapeEquals(2) || s.At(0) != 3 || s.At(1) != 4 {
		t.Errorf("Slice(1) = %v", s)
	}
	x.SetSlice(0, FromSlice([]float64{9, 8}, 2))
	if x.At(0, 0) != 9 || x.At(0, 1) != 8 {
		t.Error("SetSlice did not write")
	}
	// Slice must be a copy.
	s.Data()[0] = 100
	if x.At(1, 0) != 3 {
		t.Error("Slice shares storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, -2, 3}, 3)
	b := FromSlice([]float64{4, 5, -6}, 3)
	if got := Sub(a, b); !got.AllClose(FromSlice([]float64{-3, -7, 9}, 3), 1e-12) {
		t.Errorf("Sub = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddInto with mismatched shapes did not panic")
		}
	}()
	AddInto(New(2), New(3))
}

func TestClamp(t *testing.T) {
	a := FromSlice([]float64{-5, 0.5, 5}, 3)
	ClampInto(a, -1, 1)
	if !a.AllClose(FromSlice([]float64{-1, 0.5, 1}, 3), 1e-12) {
		t.Errorf("ClampInto = %v", a)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	AddInto(a, FromSlice([]float64{10, 20}, 2))
	if !a.AllClose(FromSlice([]float64{11, 22}, 2), 1e-12) {
		t.Errorf("AddInto = %v", a)
	}
	ScaleInto(a, 0.1)
	if !a.AllClose(FromSlice([]float64{1.1, 2.2}, 2), 1e-12) {
		t.Errorf("ScaleInto = %v", a)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMulOn(nil, a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.AllClose(want, 1e-12) {
		t.Errorf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRand(1, 2)
	a := RandN(r, 0, 1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if got := MatMulOn(nil, a, id); !got.AllClose(a, 1e-12) {
		t.Error("A·I != A")
	}
	if got := MatMulOn(nil, id, a); !got.AllClose(a, 1e-12) {
		t.Error("I·A != A")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	MatMulOn(nil, New(2, 3), New(4, 2))
}

func TestMatMulTransposedVariants(t *testing.T) {
	r := NewRand(3, 4)
	a := RandN(r, 0, 1, 5, 3)
	b := RandN(r, 0, 1, 5, 4)
	// aᵀ·b via explicit transpose must match MatMulATB.
	want := MatMulOn(nil, transpose2D(a), b)
	if got := matMulATB(nil, a, b); !got.AllClose(want, 1e-10) {
		t.Error("MatMulATB disagrees with explicit transpose")
	}
	c := RandN(r, 0, 1, 4, 3)
	d := RandN(r, 0, 1, 6, 3)
	want2 := MatMulOn(nil, c, transpose2D(d))
	if got := matMulABT(nil, c, d); !got.AllClose(want2, 1e-10) {
		t.Error("MatMulABT disagrees with explicit transpose")
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{10, 20}, 2)
	got := AddRowVectorInto(nil, New(2, 2), a, v)
	want := FromSlice([]float64{11, 22, 13, 24}, 2, 2)
	if !got.AllClose(want, 1e-12) {
		t.Errorf("AddRowVector = %v", got)
	}
	s := SumRowsInto(nil, New(2), a)
	if !s.AllClose(FromSlice([]float64{4, 6}, 2), 1e-12) {
		t.Errorf("SumRows = %v", s)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{3, -1, 4, -1, 5}, 5)
	if got := Sum(a); got != 10 {
		t.Errorf("Sum = %v", got)
	}
	if got := Mean(a); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := NormInf(a); got != 5 {
		t.Errorf("NormInf = %v", got)
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice([]float64{0, 2, 1, 9, 3, 4}, 2, 3)
	got := ArgmaxRowsOn(nil, a)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("ArgmaxRows = %v, want [1 0]", got)
	}
}

func TestDotAndNorm(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if got := Dot(a, a); got != 25 {
		t.Errorf("Dot = %v", got)
	}
	if got := Norm2(a); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	r := NewRand(7, 8)
	a := RandN(r, 0, 3, 4, 10)
	s := softmaxRows(nil, a)
	for i := 0; i < 4; i++ {
		var sum float64
		for j := 0; j < 10; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of [0,1]: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxRowsStability(t *testing.T) {
	a := FromSlice([]float64{1000, 1001, 999}, 1, 3)
	s := softmaxRows(nil, a)
	if s.HasNaN() {
		t.Fatal("softmax of large logits produced NaN")
	}
	if s.At(0, 1) <= s.At(0, 0) {
		t.Error("softmax ordering lost")
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed, 5)
		a := RandN(r, 0, 1, 2, 6)
		b := a.Clone()
		AddInto(b, Full(17.5, a.Shape()...))
		return softmaxRows(nil, a).AllClose(softmaxRows(nil, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Sub(a, a) is zero.
func TestElementwiseProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed, 11)
		n := 1 + int(seed%16)
		a := RandN(r, 0, 2, n)
		z := Sub(a, a)
		return z.AllClose(New(n), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) = AB + AC.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed, 13)
		m := 1 + int(seed%4)
		k := 1 + int((seed/4)%4)
		n := 1 + int((seed/16)%4)
		a := RandN(r, 0, 1, m, k)
		b := RandN(r, 0, 1, k, n)
		c := RandN(r, 0, 1, k, n)
		bc := b.Clone()
		AddInto(bc, c)
		left := MatMulOn(nil, a, bc)
		right := MatMulOn(nil, a, b)
		AddInto(right, MatMulOn(nil, a, c))
		return left.AllClose(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHasNaN(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	if a.HasNaN() {
		t.Error("finite tensor reported NaN")
	}
	a.Data()[1] = math.NaN()
	if !a.HasNaN() {
		t.Error("NaN not detected")
	}
	a.Data()[1] = math.Inf(1)
	if !a.HasNaN() {
		t.Error("Inf not detected")
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Error("empty String for small tensor")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Error("empty String for big tensor")
	}
}

func TestFillZeroCopy(t *testing.T) {
	a := Full(7, 3)
	a.Zero()
	if Sum(a) != 0 {
		t.Error("Zero did not clear")
	}
	b := New(3)
	b.CopyFrom(Full(2, 3))
	if !b.AllClose(Full(2, 3), 0) {
		t.Error("CopyFrom failed")
	}
}

func TestRandDeterminism(t *testing.T) {
	a := RandN(NewRand(42, 1), 0, 1, 10)
	b := RandN(NewRand(42, 1), 0, 1, 10)
	if !a.AllClose(b, 0) {
		t.Error("same seed produced different tensors")
	}
	c := RandU(NewRand(42, 1), -1, 1, 10)
	for _, v := range c.Data() {
		if v < -1 || v >= 1 {
			t.Errorf("RandU out of range: %v", v)
		}
	}
}
