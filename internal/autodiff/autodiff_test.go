package autodiff

import (
	"math"
	"testing"
	"testing/quick"

	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

func TestAddBackward(t *testing.T) {
	tp := NewTapeOn(nil)
	a := tp.Var(tensor.FromSlice([]float64{1, 2}, 2))
	b := tp.Var(tensor.FromSlice([]float64{3, 4}, 2))
	s := sumOf(tp, tp.Add(a, b))
	tp.Backward(s)
	if !a.Grad.AllClose(tensor.Ones(2), 1e-12) || !b.Grad.AllClose(tensor.Ones(2), 1e-12) {
		t.Errorf("Add grads: a=%v b=%v", a.Grad, b.Grad)
	}
}

func TestScaleBackward(t *testing.T) {
	tp := NewTapeOn(nil)
	a := tp.Var(tensor.FromSlice([]float64{1, -1}, 2))
	s := sumOf(tp, tp.Scale(a, 3))
	tp.Backward(s)
	if s.Data.Item() != 3-3 {
		t.Errorf("forward = %v", s.Data.Item())
	}
	if !a.Grad.AllClose(tensor.Full(3, 2), 1e-12) {
		t.Errorf("grad = %v", a.Grad)
	}
}

func TestMatMulBackwardNumerical(t *testing.T) {
	r := tensor.NewRand(1, 1)
	aT := tensor.RandN(r, 0, 1, 3, 4)
	bT := tensor.RandN(r, 0, 1, 4, 2)
	aG := tensor.New(3, 4)
	bG := tensor.New(4, 2)
	f := func() (*Tape, *Value) {
		tp := NewTapeOn(nil)
		a := tp.Leaf(aT, aG)
		b := tp.Leaf(bT, bG)
		return tp, sumOf(tp, tp.MatMul(a, b))
	}
	if _, err := GradCheck(f, []*tensor.Tensor{aT, bT}, []*tensor.Tensor{aG, bG}, 1e-6, 1e-6, 1); err != nil {
		t.Error(err)
	}
}

func TestChainRuleThroughNonlinearities(t *testing.T) {
	// loss = sum(relu(2·relu(x)·W + relu(x)))
	r := tensor.NewRand(2, 2)
	xT := tensor.RandN(r, 0, 1, 2, 4)
	xG := tensor.New(2, 4)
	w := tensor.RandN(r, 0, 1, 4, 4)
	f := func() (*Tape, *Value) {
		tp := NewTapeOn(nil)
		x := tp.ReLU(tp.Leaf(xT, xG))
		h := tp.Add(tp.MatMul(tp.Scale(x, 2), tp.Const(w)), x)
		return tp, sumOf(tp, tp.ReLU(h))
	}
	if _, err := GradCheck(f, []*tensor.Tensor{xT}, []*tensor.Tensor{xG}, 1e-6, 1e-5, 1); err != nil {
		t.Error(err)
	}
}

func TestReLUGradAtKink(t *testing.T) {
	tp := NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{-1, 0, 1}, 3))
	s := sumOf(tp, tp.ReLU(x))
	tp.Backward(s)
	want := tensor.FromSlice([]float64{0, 0, 1}, 3)
	if !x.Grad.AllClose(want, 1e-12) {
		t.Errorf("ReLU grad = %v, want %v", x.Grad, want)
	}
}

func TestReshapeBackward(t *testing.T) {
	tp := NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	y := tp.Reshape(x, 4)
	s := dotWith(tp, y, tensor.FromSlice([]float64{2, 4, 6, 8}, 4))
	tp.Backward(s)
	want := tensor.FromSlice([]float64{2, 4, 6, 8}, 2, 2)
	if !x.Grad.AllClose(want, 1e-12) {
		t.Errorf("Reshape grad = %v, want %v", x.Grad, want)
	}
}

func TestConv2DBackwardViaTape(t *testing.T) {
	r := tensor.NewRand(3, 3)
	xT := tensor.RandN(r, 0, 1, 1, 2, 5, 5)
	wT := tensor.RandN(r, 0, 1, 2, 2, 3, 3)
	bT := tensor.RandN(r, 0, 1, 2)
	xG, wG, bG := tensor.New(xT.Shape()...), tensor.New(wT.Shape()...), tensor.New(bT.Shape()...)
	p := tensor.ConvParams{Stride: 1, Padding: 1}
	f := func() (*Tape, *Value) {
		tp := NewTapeOn(nil)
		x := tp.Leaf(xT, xG)
		w := tp.Leaf(wT, wG)
		b := tp.Leaf(bT, bG)
		return tp, sumOf(tp, tp.Conv2D(x, w, b, p))
	}
	if _, err := GradCheck(f, []*tensor.Tensor{xT, wT, bT}, []*tensor.Tensor{xG, wG, bG}, 1e-6, 1e-5, 3); err != nil {
		t.Error(err)
	}
}

func TestPoolBackwardViaTape(t *testing.T) {
	r := tensor.NewRand(4, 4)
	xT := tensor.RandN(r, 0, 1, 1, 1, 4, 4)
	xG := tensor.New(xT.Shape()...)
	fAvg := func() (*Tape, *Value) {
		tp := NewTapeOn(nil)
		x := tp.Leaf(xT, xG)
		return tp, sumOf(tp, tp.AvgPool2D(x, 2))
	}
	if _, err := GradCheck(fAvg, []*tensor.Tensor{xT}, []*tensor.Tensor{xG}, 1e-6, 1e-6, 1); err != nil {
		t.Errorf("avgpool: %v", err)
	}
	fMax := func() (*Tape, *Value) {
		tp := NewTapeOn(nil)
		x := tp.Leaf(xT, xG)
		return tp, sumOf(tp, tp.MaxPool2D(x, 2))
	}
	if _, err := GradCheck(fMax, []*tensor.Tensor{xT}, []*tensor.Tensor{xG}, 1e-6, 1e-6, 1); err != nil {
		t.Errorf("maxpool: %v", err)
	}
}

func TestSoftmaxCrossEntropyForward(t *testing.T) {
	tp := NewTapeOn(nil)
	// Uniform logits: loss = ln(C).
	logits := tp.Var(tensor.New(2, 4))
	loss := tp.SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss.Data.Item()-math.Log(4)) > 1e-9 {
		t.Errorf("uniform CE = %v, want ln4 = %v", loss.Data.Item(), math.Log(4))
	}
}

func TestSoftmaxCrossEntropyBackwardNumerical(t *testing.T) {
	r := tensor.NewRand(5, 5)
	lT := tensor.RandN(r, 0, 1, 3, 5)
	lG := tensor.New(3, 5)
	labels := []int{1, 4, 0}
	f := func() (*Tape, *Value) {
		tp := NewTapeOn(nil)
		l := tp.Leaf(lT, lG)
		return tp, tp.SoftmaxCrossEntropy(l, labels)
	}
	if _, err := GradCheck(f, []*tensor.Tensor{lT}, []*tensor.Tensor{lG}, 1e-6, 1e-6, 1); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxCrossEntropyGradRowsSumToZero(t *testing.T) {
	// d(CE)/dlogits rows sum to zero: softmax sums to 1, one-hot sums to 1.
	f := func(seed uint64) bool {
		r := tensor.NewRand(seed, 6)
		tp := NewTapeOn(nil)
		l := tp.Var(tensor.RandN(r, 0, 2, 2, 6))
		loss := tp.SoftmaxCrossEntropy(l, []int{int(seed % 6), int((seed / 6) % 6)})
		tp.Backward(loss)
		for i := 0; i < 2; i++ {
			var s float64
			for j := 0; j < 6; j++ {
				s += l.Grad.At(i, j)
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	tp := NewTapeOn(nil)
	tp.SoftmaxCrossEntropy(tp.Var(tensor.New(1, 3)), []int{3})
}

func TestConstNoGradient(t *testing.T) {
	tp := NewTapeOn(nil)
	c := tp.Const(tensor.FromSlice([]float64{1, 2}, 2))
	x := tp.Var(tensor.FromSlice([]float64{3, 4}, 2))
	s := tp.MatMul(tp.Reshape(x, 1, 2), tp.Reshape(c, 2, 1))
	tp.Backward(s)
	if c.Grad != nil {
		t.Error("constant accumulated a gradient")
	}
	if !x.Grad.AllClose(c.Data, 1e-12) {
		t.Errorf("x.Grad = %v", x.Grad)
	}
}

func TestAllConstantGraphBackwardIsNoop(t *testing.T) {
	tp := NewTapeOn(nil)
	a := tp.Const(tensor.Ones(2))
	b := tp.Const(tensor.Ones(2))
	s := sumOf(tp, tp.Add(a, b))
	tp.Backward(s) // must not panic
	if s.RequiresGrad() {
		t.Error("all-constant result requires grad")
	}
}

func TestLeafGradAccumulatesAcrossTapes(t *testing.T) {
	w := tensor.FromSlice([]float64{2}, 1, 1)
	g := tensor.New(1, 1)
	for i := 0; i < 3; i++ {
		tp := NewTapeOn(nil)
		wv := tp.Leaf(w, g)
		tp.Backward(tp.MatMul(wv, wv))
	}
	// d(w²)/dw = 2w = 4, accumulated 3 times.
	if math.Abs(g.Item()-12) > 1e-12 {
		t.Errorf("accumulated grad = %v, want 12", g.Item())
	}
}

func TestDiamondGraphAccumulation(t *testing.T) {
	// y = x*x + x*x: gradient must be 4x, exercising multi-path accumulation.
	tp := NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{3}, 1, 1))
	a := tp.MatMul(x, x)
	b := tp.MatMul(x, x)
	tp.Backward(tp.Add(a, b))
	if math.Abs(x.Grad.Item()-12) > 1e-12 {
		t.Errorf("diamond grad = %v, want 12", x.Grad.Item())
	}
}

func TestValueReusedTwice(t *testing.T) {
	// z = relu(x); loss = sum(z) + sum(z*z). dz flows along both paths.
	tp := NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{2}, 1, 1))
	z := tp.ReLU(x)
	loss := tp.Add(z, tp.MatMul(z, z))
	tp.Backward(loss)
	if math.Abs(x.Grad.Item()-5) > 1e-12 { // 1 + 2z = 5
		t.Errorf("grad = %v, want 5", x.Grad.Item())
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	tp := NewTapeOn(nil)
	x := tp.Var(tensor.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on vector did not panic")
		}
	}()
	tp.Backward(x)
}

func TestBackwardWithSeed(t *testing.T) {
	tp := NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{1, 2}, 2))
	y := tp.Scale(x, 2) // dy/dx = 2
	seed := tensor.FromSlice([]float64{1, 10}, 2)
	tp.BackwardWithSeed(y, seed)
	want := tensor.FromSlice([]float64{2, 20}, 2)
	if !x.Grad.AllClose(want, 1e-12) {
		t.Errorf("seeded grad = %v, want %v", x.Grad, want)
	}
}

func TestMixedTapesPanics(t *testing.T) {
	tp1, tp2 := NewTapeOn(nil), NewTapeOn(nil)
	a := tp1.Var(tensor.New(1))
	b := tp2.Var(tensor.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("mixing tapes did not panic")
		}
	}()
	tp1.Add(a, b)
}

func TestTapeReset(t *testing.T) {
	tp := NewTapeOn(nil)
	tp.Var(tensor.New(1))
	if n := nodesUsed(tp); n != 1 {
		t.Fatalf("%d nodes recorded", n)
	}
	tp.Reset()
	if n := nodesUsed(tp); n != 0 {
		t.Fatalf("%d nodes after Reset", n)
	}
}

func TestNewOpCustomSquare(t *testing.T) {
	// A custom op implementing y = x² with pullback 2x·g.
	tp := NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{3, -4}, 2))
	xd := x.Data.Data()
	out := tensor.FromSlice([]float64{xd[0] * xd[0], xd[1] * xd[1]}, 2)
	y := tp.NewOp(out, func(g *tensor.Tensor) {
		gd := g.Data()
		x.AccumGrad(tensor.FromSlice([]float64{2 * xd[0] * gd[0], 2 * xd[1] * gd[1]}, 2))
	}, x)
	tp.Backward(sumOf(tp, y))
	want := tensor.FromSlice([]float64{6, -8}, 2)
	if !x.Grad.AllClose(want, 1e-12) {
		t.Errorf("custom op grad = %v, want %v", x.Grad, want)
	}
}

func TestLeafShapeMismatchPanics(t *testing.T) {
	tp := NewTapeOn(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched leaf grad did not panic")
		}
	}()
	tp.Leaf(tensor.New(2), tensor.New(3))
}

// TestInteriorGradBuffersReleased pins the backward workspace arena:
// interior-node gradient buffers are pooled and released once Backward
// has consumed them, while leaf gradients stay in their caller-owned
// buffers.
func TestInteriorGradBuffersReleased(t *testing.T) {
	tp := NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{1, 2}, 2))
	y := tp.Scale(x, 2) // interior
	s := sumOf(tp, y)   // interior root
	tp.Backward(s)
	if y.Grad != nil || s.Grad != nil {
		t.Error("interior gradients were retained after Backward")
	}
	if !x.Grad.AllClose(tensor.FromSlice([]float64{2, 2}, 2), 1e-12) {
		t.Errorf("leaf grad = %v, want 2", x.Grad)
	}
}

// TestReleaseReturnsOwnedBuffers pins the tape's end-of-life hook:
// buffers registered with OwnBuffer/OwnWords go back to the backend
// arena on Release, the tape resets, and Release is idempotent.
func TestReleaseReturnsOwnedBuffers(t *testing.T) {
	tp := NewTapeOn(nil)
	be := tp.Backend()
	buf := be.Get(64)
	for i := range buf {
		buf[i] = float64(i)
	}
	tp.OwnBuffer(buf)
	tp.OwnWords(compute.GetUint64(8))
	x := tp.Var(tensor.FromSlice(buf, 64))
	y := sumOf(tp, x)
	tp.Backward(y)
	if x.Grad.Data()[0] != 1 {
		t.Fatalf("grad before release = %v", x.Grad.Data()[0])
	}
	tp.Release()
	tp.Release() // second release must not double-free
	// The tape is reusable after Release.
	x2 := tp.Var(tensor.FromSlice([]float64{2, 3}, 2))
	s2 := sumOf(tp, x2)
	tp.Backward(s2)
	if s2.Data.Item() != 5 {
		t.Errorf("reused tape sum = %v, want 5", s2.Data.Item())
	}
}

// TestReleaseReuseIsBitIdentical: running the same forward/backward
// twice with a Release in between — so the second pass recycles the
// first pass's pooled buffers — must produce bit-identical results.
func TestReleaseReuseIsBitIdentical(t *testing.T) {
	run := func() (float64, *tensor.Tensor) {
		tp := NewTapeOn(nil)
		buf := tp.Backend().Get(16)
		for i := range buf {
			buf[i] = float64(i%5) - 2
		}
		tp.OwnBuffer(buf)
		x := tp.Var(tensor.FromSlice(buf, 4, 4))
		y := tp.MatMul(x, x)
		s := sumOf(tp, y)
		tp.Backward(s)
		g := x.Grad.Clone()
		out := s.Data.Item()
		tp.Release()
		return out, g
	}
	s1, g1 := run()
	s2, g2 := run()
	if s1 != s2 || !g1.AllClose(g2, 0) {
		t.Errorf("pooled reuse changed results: %v vs %v", s1, s2)
	}
}

// TestSpikeMatMulDispatch: a value carrying a packed spike plane must
// produce the same forward result and the same gradients as the same
// value without one.
func TestSpikeMatMulDispatch(t *testing.T) {
	r := tensor.NewRand(41, 43)
	spikes := tensor.New(3, 5)
	for i := 0; i < spikes.Len(); i += 2 {
		spikes.Data()[i] = 1
	}
	w := tensor.RandN(r, 0, 1, 5, 4)
	seed := tensor.RandN(r, 0, 1, 3, 4)

	run := func(attach bool) (*tensor.Tensor, *tensor.Tensor, *tensor.Tensor) {
		tp := NewTapeOn(nil)
		a := tp.Var(spikes.Clone())
		if attach {
			a.AttachSpikes(tensor.PackSpikesOn(nil, a.Data))
		}
		wv := tp.Var(w.Clone())
		out := tp.MatMul(a, wv)
		tp.BackwardWithSeed(out, seed)
		return out.Data, a.Grad, wv.Grad
	}
	denseOut, denseDA, denseDW := run(false)
	spikeOut, spikeDA, spikeDW := run(true)
	if !denseOut.AllClose(spikeOut, 0) {
		t.Error("spike MatMul forward differs from dense")
	}
	if !denseDA.AllClose(spikeDA, 0) || !denseDW.AllClose(spikeDW, 0) {
		t.Error("spike MatMul gradients differ from dense")
	}
}

// TestSpikePlaneSurvivesFlatten: Reshape keeping the batch dimension
// must carry the packed plane through, so the representation threads
// through layer-shape changes.
func TestSpikePlaneSurvivesFlatten(t *testing.T) {
	tp := NewTapeOn(nil)
	x := tensor.New(2, 3, 4)
	x.Data()[0], x.Data()[13] = 1, 1
	v := tp.Const(x)
	v.AttachSpikes(tensor.PackSpikesOn(nil, x))
	flat := tp.Reshape(v, 2, 12)
	if flat.Spikes() == nil {
		t.Fatal("packed spike plane lost through batch-preserving reshape")
	}
	if !flat.Spikes().DenseInto(nil, tensor.New(2, 12)).AllClose(x.Reshape(2, 12), 0) {
		t.Fatal("reshaped spike plane does not match the dense view")
	}
	// A reshape that changes the leading dimension must drop the plane.
	if tp.Reshape(v, 6, 4).Spikes() != nil {
		t.Fatal("packed spike plane survived a batch-changing reshape")
	}
}

// Property: gradient of sum(x) is all-ones for any shape.
func TestSumGradProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%20)
		r := tensor.NewRand(seed, 9)
		tp := NewTapeOn(nil)
		x := tp.Var(tensor.RandN(r, 0, 1, n))
		tp.Backward(sumOf(tp, x))
		return x.Grad.AllClose(tensor.Ones(n), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: linearity of the gradient — grad of sum(a·x) is a for random a.
func TestLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRand(seed, 10)
		n := 1 + int(seed%10)
		aT := tensor.RandN(r, 0, 1, n)
		tp := NewTapeOn(nil)
		x := tp.Var(tensor.RandN(r, 0, 1, n))
		tp.Backward(dotWith(tp, x, aT))
		return x.Grad.AllClose(aT, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A frozen tape records parameters as constants: the input gradient is
// what the ordinary tape computes, bit for bit, the parameter gradient
// buffers are never written, and with a constant input nothing on the
// tape requires a gradient at all. Mixed operands through the guarded
// pullbacks (MatMul, AddRowVector) are the point.
func TestFrozenTapeRecordsParamsAsConstants(t *testing.T) {
	r := tensor.NewRand(91, 93)
	xT := tensor.RandN(r, 0, 1, 4, 5)
	wT, bT, mT := tensor.RandN(r, 0, 1, 5, 3), tensor.RandN(r, 0, 1, 3), tensor.RandN(r, 0, 1, 3, 2)
	run := func(tp *Tape, x *Value) (out, w, b, m *Value) {
		w = tp.Param(wT, tensor.New(5, 3))
		b = tp.Param(bT, tensor.New(3))
		m = tp.Param(mT, tensor.New(3, 2))
		h := tp.AddRowVector(tp.MatMul(x, w), b)
		out = sumOf(tp, tp.MatMul(tp.ReLU(h), m))
		tp.Backward(out)
		return out, w, b, m
	}
	ref := NewTapeOn(nil)
	rx := ref.Var(xT)
	_, rw, rb, rm := run(ref, rx)
	for _, p := range []*Value{rw, rb, rm} {
		if !p.RequiresGrad() || tensor.NormInf(p.Grad) == 0 {
			t.Fatal("ordinary tape must record parameters as leaves and fill their gradients")
		}
	}

	frozen := NewFrozenTapeOn(nil)
	fx := frozen.Var(xT)
	_, fw, fb, fm := run(frozen, fx)
	for i, v := range rx.Grad.Data() {
		if math.Float64bits(v) != math.Float64bits(fx.Grad.Data()[i]) {
			t.Fatalf("input gradient element %d: %v on the ordinary tape, %v on the frozen one", i, v, fx.Grad.Data()[i])
		}
	}
	for _, p := range []*Value{fw, fb, fm} {
		if p.RequiresGrad() || p.Grad != nil {
			t.Error("frozen tape recorded a parameter as a leaf")
		}
	}

	fwd := NewFrozenTapeOn(nil)
	out, _, _, _ := run(fwd, fwd.Const(xT))
	if out.RequiresGrad() {
		t.Error("a frozen tape with a constant input must record a plain forward pass")
	}
}
