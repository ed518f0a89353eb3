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
	s := Scalar(3.5)
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

func TestRowView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	r := x.Row(1)
	r[0] = 7
	if x.At(1, 0) != 7 {
		t.Error("Row should be a view")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, -2, 3}, 3)
	b := FromSlice([]float64{4, 5, -6}, 3)
	if got := Add(a, b); !got.AllClose(FromSlice([]float64{5, 3, -3}, 3), 1e-12) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(a, b); !got.AllClose(FromSlice([]float64{-3, -7, 9}, 3), 1e-12) {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(a, b); !got.AllClose(FromSlice([]float64{4, -10, -18}, 3), 1e-12) {
		t.Errorf("Mul = %v", got)
	}
	if got := Div(b, a); !got.AllClose(FromSlice([]float64{4, -2.5, -2}, 3), 1e-12) {
		t.Errorf("Div = %v", got)
	}
	if got := Scale(a, 2); !got.AllClose(FromSlice([]float64{2, -4, 6}, 3), 1e-12) {
		t.Errorf("Scale = %v", got)
	}
	if got := AddScalar(a, 1); !got.AllClose(FromSlice([]float64{2, -1, 4}, 3), 1e-12) {
		t.Errorf("AddScalar = %v", got)
	}
	if got := Abs(a); !got.AllClose(FromSlice([]float64{1, 2, 3}, 3), 1e-12) {
		t.Errorf("Abs = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	Add(New(2), New(3))
}

func TestClamp(t *testing.T) {
	a := FromSlice([]float64{-5, 0.5, 5}, 3)
	got := Clamp(a, 0, 1)
	want := FromSlice([]float64{0, 0.5, 1}, 3)
	if !got.AllClose(want, 1e-12) {
		t.Errorf("Clamp = %v, want %v", got, want)
	}
	ClampInto(a, -1, 1)
	if !a.AllClose(FromSlice([]float64{-1, 0.5, 1}, 3), 1e-12) {
		t.Errorf("ClampInto = %v", a)
	}
}

func TestMaximumMinimum(t *testing.T) {
	a := FromSlice([]float64{1, 5}, 2)
	b := FromSlice([]float64{3, 2}, 2)
	if got := Maximum(a, b); !got.AllClose(FromSlice([]float64{3, 5}, 2), 1e-12) {
		t.Errorf("Maximum = %v", got)
	}
	if got := Minimum(a, b); !got.AllClose(FromSlice([]float64{1, 2}, 2), 1e-12) {
		t.Errorf("Minimum = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	AddInto(a, FromSlice([]float64{10, 20}, 2))
	if !a.AllClose(FromSlice([]float64{11, 22}, 2), 1e-12) {
		t.Errorf("AddInto = %v", a)
	}
	SubInto(a, FromSlice([]float64{1, 2}, 2))
	if !a.AllClose(FromSlice([]float64{10, 20}, 2), 1e-12) {
		t.Errorf("SubInto = %v", a)
	}
	MulInto(a, FromSlice([]float64{2, 0.5}, 2))
	if !a.AllClose(FromSlice([]float64{20, 10}, 2), 1e-12) {
		t.Errorf("MulInto = %v", a)
	}
	ScaleInto(a, 0.1)
	if !a.AllClose(FromSlice([]float64{2, 1}, 2), 1e-12) {
		t.Errorf("ScaleInto = %v", a)
	}
	Axpy(3, FromSlice([]float64{1, 1}, 2), a)
	if !a.AllClose(FromSlice([]float64{5, 4}, 2), 1e-12) {
		t.Errorf("Axpy = %v", a)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
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
	if got := MatMul(a, id); !got.AllClose(a, 1e-12) {
		t.Error("A·I != A")
	}
	if got := MatMul(id, a); !got.AllClose(a, 1e-12) {
		t.Error("I·A != A")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulTransposedVariants(t *testing.T) {
	r := NewRand(3, 4)
	a := RandN(r, 0, 1, 5, 3)
	b := RandN(r, 0, 1, 5, 4)
	// aᵀ·b via explicit transpose must match MatMulATB.
	want := MatMul(Transpose2D(a), b)
	if got := MatMulATB(a, b); !got.AllClose(want, 1e-10) {
		t.Error("MatMulATB disagrees with explicit transpose")
	}
	c := RandN(r, 0, 1, 4, 3)
	d := RandN(r, 0, 1, 6, 3)
	want2 := MatMul(c, Transpose2D(d))
	if got := MatMulABT(c, d); !got.AllClose(want2, 1e-10) {
		t.Error("MatMulABT disagrees with explicit transpose")
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Transpose2D(a)
	want := FromSlice([]float64{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.AllClose(want, 1e-12) {
		t.Errorf("Transpose2D = %v", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed, 99)
		m := 1 + int(seed%5)
		n := 1 + int((seed/5)%7)
		a := RandN(r, 0, 1, m, n)
		return Transpose2D(Transpose2D(a)).AllClose(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{10, 20}, 2)
	got := AddRowVector(a, v)
	want := FromSlice([]float64{11, 22, 13, 24}, 2, 2)
	if !got.AllClose(want, 1e-12) {
		t.Errorf("AddRowVector = %v", got)
	}
	s := SumRows(a)
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
	if got := Max(a); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if got := Min(a); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Argmax(a); got != 4 {
		t.Errorf("Argmax = %v", got)
	}
	if got := NormInf(a); got != 5 {
		t.Errorf("NormInf = %v", got)
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice([]float64{0, 2, 1, 9, 3, 4}, 2, 3)
	got := ArgmaxRows(a)
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
	s := SoftmaxRows(a)
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
	s := SoftmaxRows(a)
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
		b := AddScalar(a, 17.5)
		return SoftmaxRows(a).AllClose(SoftmaxRows(b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Add is commutative and Sub(a, a) is zero.
func TestElementwiseProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed, 11)
		n := 1 + int(seed%16)
		a := RandN(r, 0, 2, n)
		b := RandN(r, 0, 2, n)
		if !Add(a, b).AllClose(Add(b, a), 0) {
			return false
		}
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
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
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
	a := New(3)
	a.Fill(7)
	if !a.AllClose(Full(7, 3), 0) {
		t.Errorf("Fill = %v", a)
	}
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
