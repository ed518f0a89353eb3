package autodiff

import (
	"math"
	"testing"

	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// ledgerBackend counts, per buffer, Gets minus Puts: a buffer still lent
// out reads 1, one given back reads 0, and one given back twice would
// read −1 and fails the test on the spot.
type ledgerBackend struct {
	compute.Serial
	t    *testing.T
	lent map[*float64]int
}

func newLedger(t *testing.T) *ledgerBackend {
	return &ledgerBackend{t: t, lent: map[*float64]int{}}
}

func (l *ledgerBackend) Get(n int) []float64 {
	buf := l.Serial.Get(n)
	l.lent[&buf[0]]++
	return buf
}

func (l *ledgerBackend) Put(buf []float64) {
	buf = buf[:1]
	if l.lent[&buf[0]]--; l.lent[&buf[0]] < 0 {
		l.t.Errorf("buffer %p returned to the arena twice", &buf[0])
	}
	l.Serial.Put(buf)
}

func (l *ledgerBackend) outstanding() int {
	n := 0
	for _, c := range l.lent {
		n += c
	}
	return n
}

// twoOut records the two-output op (2x, 3x) over x. calls counts the
// pullback runs; sawA/sawB report which gradients the last run received.
func twoOut(tp *Tape, x *Value, calls *int, sawA, sawB *bool) (a, b *Value) {
	xd := x.Data.Data()
	outA, outB := tp.Output(x.Shape()...), tp.Output(x.Shape()...)
	for i, v := range xd {
		outA.Data()[i], outB.Data()[i] = 2*v, 3*v
	}
	return tp.NewOp2(outA, outB, func(gA, gB *tensor.Tensor) {
		*calls++
		*sawA, *sawB = gA != nil, gB != nil
		dx := tp.Product(x.Shape()...)
		for i := range dx.Data() {
			var d float64
			if gA != nil {
				d += 2 * gA.Data()[i]
			}
			if gB != nil {
				d += 3 * gB.Data()[i]
			}
			dx.Data()[i] = d
		}
		x.HandGrad(dx)
	}, x)
}

func TestNewOp2PullbackSeesWhatWasRead(t *testing.T) {
	cases := []struct {
		name       string
		loss       func(tp *Tape, a, b *Value) *Value
		sawA, sawB bool
		want       float64 // d loss / d x[i]
	}{
		{"only the first output read", func(tp *Tape, a, _ *Value) *Value { return sumOf(tp, a) }, true, false, 2},
		{"only the second output read", func(tp *Tape, _, b *Value) *Value { return sumOf(tp, b) }, false, true, 3},
		{"both read", func(tp *Tape, a, b *Value) *Value { return sumOf(tp, tp.Add(a, b)) }, true, true, 5},
	}
	for _, c := range cases {
		be := newLedger(t)
		tp := NewTapeOn(be)
		x := tp.Var(tensor.FromSlice([]float64{1, -2, 4}, 3))
		var calls int
		var sawA, sawB bool
		a, b := twoOut(tp, x, &calls, &sawA, &sawB)
		tp.Backward(c.loss(tp, a, b))
		if calls != 1 {
			t.Errorf("%s: pullback ran %d times, want once", c.name, calls)
		}
		if sawA != c.sawA || sawB != c.sawB {
			t.Errorf("%s: pullback saw gradients (%v, %v), want (%v, %v)", c.name, sawA, sawB, c.sawA, c.sawB)
		}
		for i, g := range x.Grad.Data() {
			if g != c.want {
				t.Errorf("%s: dx[%d] = %v, want %v", c.name, i, g, c.want)
			}
		}
		if a.Grad != nil || b.Grad != nil {
			t.Errorf("%s: an output gradient was retained after Backward", c.name)
		}
		// Every gradient buffer went back exactly once (the ledger fails
		// a second Put); what is still lent out is the tape's outputs.
		tp.Release()
		if n := be.outstanding(); n != 0 {
			t.Errorf("%s: %d arena buffers never returned", c.name, n)
		}
	}
}

// TestNewOp2PairStaysInOneChunk records a two-output op where one slot
// of the first chunk is left: both outputs move to the next chunk, where
// the reverse walk finds the first right before the second.
func TestNewOp2PairStaysInOneChunk(t *testing.T) {
	tp := NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{1, -2, 4}, 3))
	for nodesUsed(tp) < firstChunk-1 {
		tp.Const(x.Data)
	}
	var calls int
	var sawA, sawB bool
	a, b := twoOut(tp, x, &calls, &sawA, &sawB)
	if next := tp.nodes.chunks[1]; a != &next[0] || b != &next[1] {
		t.Fatal("the outputs of a two-output op are not adjacent in one chunk")
	}
	tp.Backward(sumOf(tp, tp.Add(a, b)))
	if calls != 1 || !sawA || !sawB {
		t.Errorf("pullback ran %d times and saw gradients (%v, %v), want once with both", calls, sawA, sawB)
	}
	for i, g := range x.Grad.Data() {
		if g != 5 {
			t.Errorf("dx[%d] = %v, want 5", i, g)
		}
	}
}

func TestNewOp2WithoutDifferentiableParentRecordsNoPullback(t *testing.T) {
	tp := NewTapeOn(nil)
	x := tp.Const(tensor.FromSlice([]float64{1, 2}, 2))
	var calls int
	var sawA, sawB bool
	a, b := twoOut(tp, x, &calls, &sawA, &sawB)
	if a.RequiresGrad() || b.RequiresGrad() {
		t.Fatal("outputs of an all-constant op require gradients")
	}
	tp.Backward(sumOf(tp, tp.Add(a, b)))
	if calls != 0 {
		t.Errorf("pullback of an all-constant op ran %d times", calls)
	}
}

func TestNewOp2GradCheck(t *testing.T) {
	x := tensor.FromSlice([]float64{0.3, -1.2, 0.7, 2.1}, 4)
	grad := tensor.New(4)
	f := func() (*Tape, *Value) {
		tp := NewTapeOn(nil)
		xv := tp.Leaf(x, grad)
		xd := x.Data()
		sq, sn := tp.Output(4), tp.Output(4)
		for i, v := range xd {
			sq.Data()[i], sn.Data()[i] = v*v, math.Sin(v)
		}
		a, b := tp.NewOp2(sq, sn, func(gA, gB *tensor.Tensor) {
			dx := tp.Product(4)
			for i, v := range xd {
				dx.Data()[i] = 0 + gA.Data()[i]*2*v + gB.Data()[i]*math.Cos(v)
			}
			xv.HandGrad(dx)
		}, xv)
		return tp, sumOf(tp, tp.Add(tp.Scale(a, 0.5), b))
	}
	if worst, err := GradCheck(f, []*tensor.Tensor{x}, []*tensor.Tensor{grad}, 1e-6, 1e-6, 1); err != nil {
		t.Fatalf("two-output op gradcheck: %v (worst %g)", err, worst)
	}
}

// probe records an identity op over x whose pullback stores the bits of
// the gradient x's consumer gave it — an interior node, so the first
// contribution is whatever the hand-over stored.
func probe(tp *Tape, x *Value, bits *[]uint64) *Value {
	out := tp.Output(x.Shape()...)
	out.CopyFrom(x.Data)
	return tp.NewOp(out, func(g *tensor.Tensor) {
		for _, v := range g.Data() {
			*bits = append(*bits, math.Float64bits(v))
		}
		x.AccumGrad(g)
	}, x)
}

// A handed-over product stands in for an accumulator that started at
// zero, so it must hold the bits 0 + g would: every case below is built
// so that each raw product is −0, and the gradient that arrives must be
// +0 in every element.
func TestHandOverStoresZeroPlusG(t *testing.T) {
	const tiny = -5e-324 // times anything in (−½, ½) rounds to −0
	full := func(v float64, shape ...int) *tensor.Tensor { return tensor.Full(v, shape...) }
	cases := []struct {
		name  string
		shape []int
		op    func(tp *Tape, p *Value) *Value
		seed  func(out *Value) *tensor.Tensor
	}{
		{"Scale", []int{4}, func(tp *Tape, p *Value) *Value { return tp.Scale(p, -2) },
			func(out *Value) *tensor.Tensor { return full(0, 4) }},
		{"AvgPool2D", []int{1, 1, 2, 2}, func(tp *Tape, p *Value) *Value { return tp.AvgPool2D(p, 2) },
			func(out *Value) *tensor.Tensor { return full(tiny, 1, 1, 1, 1) }},
		{"MatMul", []int{2, 2}, func(tp *Tape, p *Value) *Value { return tp.MatMul(p, tp.Const(full(-1, 2, 2))) },
			func(out *Value) *tensor.Tensor { return full(0, 2, 2) }},
		{"Conv2D", []int{1, 1, 2, 2}, func(tp *Tape, p *Value) *Value {
			return tp.Conv2D(p, tp.Const(full(-1, 1, 1, 1, 1)), nil, tensor.ConvParams{Stride: 1})
		}, func(out *Value) *tensor.Tensor { return full(0, 1, 1, 2, 2) }},
		{"AccumGrad through Reshape", []int{4}, func(tp *Tape, p *Value) *Value { return tp.Reshape(tp.Scale(p, -2), 2, 2) },
			func(out *Value) *tensor.Tensor { return full(0, 2, 2) }},
	}
	for _, c := range cases {
		tp := NewTapeOn(nil)
		x := tp.Var(tensor.Full(2, c.shape...))
		var bits []uint64
		out := c.op(tp, probe(tp, x, &bits))
		tp.BackwardWithSeed(out, c.seed(out))
		if len(bits) != x.Data.Len() {
			t.Fatalf("%s: probe saw %d gradient elements, want %d", c.name, len(bits), x.Data.Len())
		}
		for i, b := range bits {
			if b != 0 {
				t.Errorf("%s: element %d arrived as bits %#x, want +0 (the bits of 0 + −0)", c.name, i, b)
			}
		}
	}
}
