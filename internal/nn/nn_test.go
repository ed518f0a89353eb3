package nn

import (
	"math"
	"testing"

	"snnsec/internal/autodiff"
	"snnsec/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	r := tensor.NewRand(1, 1)
	l := NewLinear(r, 4, 3)
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.RandN(r, 0, 1, 2, 4))
	y := l.Forward(tp, x)
	if !y.Data.ShapeEquals(2, 3) {
		t.Errorf("Linear output shape = %v, want [2 3]", y.Data.Shape())
	}
}

func TestLinearKnownValues(t *testing.T) {
	r := tensor.NewRand(2, 2)
	l := NewLinear(r, 2, 2)
	l.W.Data.CopyFrom(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	l.B.Data.CopyFrom(tensor.FromSlice([]float64{10, 20}, 2))
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.FromSlice([]float64{1, 1}, 1, 2))
	y := l.Forward(tp, x)
	want := tensor.FromSlice([]float64{14, 26}, 1, 2)
	if !y.Data.AllClose(want, 1e-12) {
		t.Errorf("Linear = %v, want %v", y.Data, want)
	}
}

func TestLinearWrongInputPanics(t *testing.T) {
	r := tensor.NewRand(3, 3)
	l := NewLinear(r, 4, 3)
	tp := autodiff.NewTapeOn(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Linear with wrong input width did not panic")
		}
	}()
	l.Forward(tp, tp.Const(tensor.New(2, 5)))
}

func TestLinearGradientsFlow(t *testing.T) {
	r := tensor.NewRand(4, 4)
	l := NewLinear(r, 3, 2)
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.RandN(r, 0, 1, 5, 3))
	y := l.Forward(tp, x)
	tp.BackwardWithSeed(y, tensor.Ones(y.Shape()...))
	if tensor.NormInf(l.W.Grad) == 0 {
		t.Error("weight gradient is zero")
	}
	if tensor.NormInf(l.B.Grad) == 0 {
		t.Error("bias gradient is zero")
	}
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	if tensor.NormInf(l.W.Grad) != 0 {
		t.Error("ZeroGrad did not clear")
	}
}

func TestConv2DLayerShape(t *testing.T) {
	r := tensor.NewRand(5, 5)
	c := NewConv2D(r, 1, 6, 5, 1, 2)
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.RandN(r, 0, 1, 2, 1, 16, 16))
	y := c.Forward(tp, x)
	if !y.Data.ShapeEquals(2, 6, 16, 16) {
		t.Errorf("Conv2D output shape = %v, want [2 6 16 16]", y.Data.Shape())
	}
}

func TestConvWrongChannelsPanics(t *testing.T) {
	r := tensor.NewRand(6, 6)
	c := NewConv2D(r, 3, 4, 3, 1, 1)
	tp := autodiff.NewTapeOn(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Conv2D with wrong channels did not panic")
		}
	}()
	c.Forward(tp, tp.Const(tensor.New(1, 2, 8, 8)))
}

func TestFlatten(t *testing.T) {
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.New(2, 3, 4, 4))
	y := Flatten{}.Forward(tp, x)
	if !y.Data.ShapeEquals(2, 48) {
		t.Errorf("Flatten shape = %v, want [2 48]", y.Data.Shape())
	}
}

func TestSequentialComposesAndCollectsParams(t *testing.T) {
	r := tensor.NewRand(7, 7)
	net := NewSequential(
		NewConv2D(r, 1, 2, 3, 1, 1),
		ReLU{},
		AvgPool{K: 2},
		Flatten{},
		NewLinear(r, 2*4*4, 10),
	)
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.RandN(r, 0, 1, 3, 1, 8, 8))
	y := net.Forward(tp, x)
	if !y.Data.ShapeEquals(3, 10) {
		t.Fatalf("Sequential output = %v", y.Data.Shape())
	}
	if len(net.Params()) != 4 {
		t.Errorf("Params count = %d, want 4", len(net.Params()))
	}
	got, want := 0, 2*1*3*3+2+32*10+10
	for _, p := range net.Params() {
		got += p.Data.Len()
	}
	if got != want {
		t.Errorf("parameter count = %d, want %d", got, want)
	}
}

func TestSequentialIsClassifier(t *testing.T) {
	r := tensor.NewRand(8, 8)
	var c Classifier = NewSequential(Flatten{}, NewLinear(r, 16, 4))
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.RandN(r, 0, 1, 2, 1, 4, 4))
	y := c.Logits(tp, x)
	if !y.Data.ShapeEquals(2, 4) {
		t.Errorf("Logits shape = %v", y.Data.Shape())
	}
}

func TestInitialisersStatistics(t *testing.T) {
	r := tensor.NewRand(12, 12)
	h := HeNormal(r, 100, 100, 100)
	std := math.Sqrt(2.0 / 100)
	var s, s2 float64
	for _, v := range h.Data() {
		s += v
		s2 += v * v
	}
	n := float64(h.Len())
	mean := s / n
	sd := math.Sqrt(s2/n - mean*mean)
	if math.Abs(mean) > 0.01 || math.Abs(sd-std) > 0.02 {
		t.Errorf("HeNormal mean=%v sd=%v, want 0 / %v", mean, sd, std)
	}
	x := XavierUniform(r, 50, 50, 50, 50)
	a := math.Sqrt(6.0 / 100)
	if m := tensor.NormInf(x); m > a {
		t.Errorf("XavierUniform out of ±%v: |x| reaches %v", a, m)
	}
}

func TestPoolLayers(t *testing.T) {
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2))
	if got := (AvgPool{K: 2}).Forward(tp, x); got.Data.Item() != 2.5 {
		t.Errorf("AvgPool = %v", got.Data.Item())
	}
	if got := (MaxPool{K: 2}).Forward(tp, x); got.Data.Item() != 4 {
		t.Errorf("MaxPool = %v", got.Data.Item())
	}
}

// End-to-end sanity: a tiny MLP can fit a linearly separable toy problem
// with plain gradient descent, proving grads are wired correctly.
func TestMLPLearnsToyProblem(t *testing.T) {
	r := tensor.NewRand(13, 13)
	net := NewSequential(NewLinear(r, 2, 8), ReLU{}, NewLinear(r, 8, 2))
	// Class 0: x0+x1 < 0; class 1 otherwise.
	xs := tensor.RandN(r, 0, 1, 64, 2)
	labels := make([]int, 64)
	for i := 0; i < 64; i++ {
		if xs.At(i, 0)+xs.At(i, 1) > 0 {
			labels[i] = 1
		}
	}
	var loss0, lossN float64
	for epoch := 0; epoch < 200; epoch++ {
		for _, p := range net.Params() {
			p.ZeroGrad()
		}
		tp := autodiff.NewTapeOn(nil)
		x := tp.Const(xs)
		loss := tp.SoftmaxCrossEntropy(net.Forward(tp, x), labels)
		if epoch == 0 {
			loss0 = loss.Data.Item()
		}
		lossN = loss.Data.Item()
		tp.Backward(loss)
		for _, p := range net.Params() {
			for i, g := range p.Grad.Data() {
				p.Data.Data()[i] -= 0.1 * g
			}
		}
	}
	if lossN >= loss0/2 {
		t.Errorf("training did not reduce loss: %v -> %v", loss0, lossN)
	}
	// Final accuracy should be high.
	tp := autodiff.NewTapeOn(nil)
	pred := tensor.ArgmaxRowsOn(nil, net.Forward(tp, tp.Const(xs)).Data)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if correct < 58 {
		t.Errorf("toy accuracy %d/64, want ≥ 58", correct)
	}
}
