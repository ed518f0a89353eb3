package autodiff

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"snnsec/internal/tensor"
)

// slabNodes returns every node the tape's slab holds, handed out or not.
func slabNodes(tp *Tape) []*Value {
	var vs []*Value
	for _, c := range tp.chunks {
		for i := range c {
			vs = append(vs, &c[i])
		}
	}
	return vs
}

// nodesUsed returns how many nodes tp has handed out since its last
// Reset.
func nodesUsed(tp *Tape) int {
	n := tp.off
	for _, c := range tp.chunks[:tp.cur] {
		n += len(c)
	}
	return n
}

// TestSlabReuseLeavesNoStaleState records a graph that uses every field
// of a node — leaf gradients, interior gradients, one- and two-output
// pullbacks, attached spike planes — over more nodes than one chunk
// holds, differentiates and releases it, and then records a different
// graph on the recycled nodes: constants where the leaves were, plain
// values where the spike planes were. Nothing of the first graph may
// show in the second, which must equal the same graph on a fresh tape.
func TestSlabReuseLeavesNoStaleState(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	plane := binaryAt(rng, 0.4, 3, 8)
	w := tensor.RandN(tensor.NewRand(8, 8), 0, 1, 8, 5)
	tp := NewTapeOn(nil)

	x := tp.Var(plane.Clone())
	x.AttachSpikes(tensor.PackSpikesOn(nil, plane))
	var calls int
	var sawA, sawB bool
	a, b := twoOut(tp, tp.MatMul(x, tp.Var(w.Clone())), &calls, &sawA, &sawB)
	h := tp.Add(a, b)
	for i := 0; i < 3*firstChunk; i++ { // crosses two chunk boundaries
		h = tp.Scale(h, 0.5)
	}
	first := x // a node of the first chunk, held across the slab's growth
	tp.Backward(sumOf(tp, h))
	if calls != 1 || first.Grad == nil || tensor.NormInf(first.Grad) == 0 {
		t.Fatalf("the first graph did not differentiate (pullback calls %d)", calls)
	}
	if len(tp.chunks) < 3 {
		t.Fatalf("graph of %d nodes fits %d chunks; the test must cross chunk boundaries", nodesUsed(tp), len(tp.chunks))
	}
	recorded := nodesUsed(tp)
	tp.Release()

	if nodesUsed(tp) != 0 {
		t.Fatalf("tape holds %d nodes after Release", nodesUsed(tp))
	}
	for i, v := range slabNodes(tp) {
		if v.Data != nil || v.Grad != nil || v.requiresGrad || v.interior || v.back != nil || v.tape != nil || v.spikes != nil {
			t.Fatalf("node %d of the slab still holds %+v after Release", i, *v)
		}
	}

	// The second graph, on the recycled tape and on a fresh one.
	second := func(tp *Tape) (out, dw *tensor.Tensor, nodes []*Value) {
		c := tp.Const(plane.Clone()) // where the Var with its spike plane was
		wv := tp.Var(w.Clone())
		y := tp.ReLU(tp.MatMul(c, wv))
		z := tp.Scale(y, 0.5)
		tp.Backward(sumOf(tp, z))
		return z.Data.Clone(), wv.Grad, []*Value{c, y, z}
	}
	chunks := len(tp.chunks)
	out, dw, nodes := second(tp)
	if nodesUsed(tp) >= recorded || len(tp.chunks) != chunks {
		t.Fatalf("second graph: %d nodes in %d chunks, the slab had %d and %d", nodesUsed(tp), len(tp.chunks), recorded, chunks)
	}
	if nodes[0] != first {
		t.Fatal("the second graph's first node is not the recycled first node of the slab")
	}
	if c := nodes[0]; c.RequiresGrad() || c.Grad != nil || c.Spikes() != nil || c.back != nil {
		t.Errorf("recycled constant kept state of the leaf it was: %+v", *c)
	}
	for i, v := range nodes[1:] {
		if v.Spikes() != nil || v.Grad != nil {
			t.Errorf("recycled interior node %d kept a spike plane or a gradient: %+v", i, *v)
		}
	}
	wantOut, wantDW, _ := second(NewTapeOn(nil))
	if !wantOut.AllClose(out, 0) || !wantDW.AllClose(dw, 0) {
		t.Error("a graph recorded on recycled nodes differs from the same graph on a fresh tape")
	}
}

// TestFrozenConstantForwardBuildsNoPullback pins the early return: on a
// tape whose inputs are all constants, no operation's node requires a
// gradient or holds a pullback, and Backward from the result is a no-op.
func TestFrozenConstantForwardBuildsNoPullback(t *testing.T) {
	r := tensor.NewRand(9, 9)
	tp := NewFrozenTapeOn(nil)
	x := tp.Const(tensor.RandN(r, 0, 1, 2, 1, 6, 6))
	w := tp.Param(tensor.RandN(r, 0, 1, 3, 1, 3, 3), tensor.New(3, 1, 3, 3))
	fc := tp.Param(tensor.RandN(r, 0, 1, 27, 4), tensor.New(27, 4))
	bias := tp.Param(tensor.New(4), tensor.New(4))
	h := tp.Conv2D(x, w, nil, tensor.ConvParams{Stride: 1, Padding: 1})
	h = tp.AvgPool2D(tp.ReLU(h), 2)
	h = tp.AddRowVector(tp.MatMul(tp.Reshape(h, 2, -1), fc), bias)
	loss := tp.SoftmaxCrossEntropy(tp.Add(tp.Scale(h, 2), h), []int{0, 1})
	for i, v := range slabNodes(tp)[:nodesUsed(tp)] {
		if v.requiresGrad || v.interior || v.back != nil {
			t.Errorf("node %d of an all-constant forward records a pullback: %+v", i, *v)
		}
	}
	tp.Backward(loss)
}

// packedCases are the operations a packed-only constant flows through,
// each applied to a [2,3,8,8] plane.
var packedCases = []struct {
	name string
	op   func(tp *Tape, x, w4, w2 *Value) *Value
}{
	{"Conv2D", func(tp *Tape, x, w4, _ *Value) *Value {
		return tp.Conv2D(x, w4, nil, tensor.ConvParams{Stride: 1, Padding: 1})
	}},
	{"AvgPool2D", func(tp *Tape, x, _, _ *Value) *Value { return tp.AvgPool2D(x, 2) }},
	{"ReLU+Reshape+MatMul", func(tp *Tape, x, _, w2 *Value) *Value {
		return tp.MatMul(tp.Reshape(tp.ReLU(x), 2, -1), w2)
	}},
}

// TestPackedOnlyConstantMatchesDense feeds one binary plane three ways —
// packed-only, dense with the plane attached, dense alone — through
// every operation a plane reaches, on a recording tape whose weights are
// leaves: outputs and weight gradients must agree bit for bit, and the
// pooled scratch a packed-only input is unpacked into must leave the
// plane's bits as they were.
func TestPackedOnlyConstantMatchesDense(t *testing.T) {
	r := tensor.NewRand(61, 61)
	w4 := tensor.RandN(r, 0, 0.5, 4, 3, 3, 3)
	w2 := tensor.RandN(r, 0, 0.5, 3*8*8, 5)
	feeds := []struct {
		name string
		feed func(tp *Tape, sp *tensor.SpikeTensor, dense *tensor.Tensor) *Value
	}{
		{"dense", func(tp *Tape, _ *tensor.SpikeTensor, dense *tensor.Tensor) *Value { return tp.Const(dense) }},
		{"dense+plane", func(tp *Tape, sp *tensor.SpikeTensor, dense *tensor.Tensor) *Value {
			v := tp.Const(dense)
			v.AttachSpikes(sp)
			return v
		}},
		{"packed-only", func(tp *Tape, sp *tensor.SpikeTensor, _ *tensor.Tensor) *Value { return tp.Spikes(sp) }},
	}
	for di, density := range dispatchDensities {
		dense := binaryAt(rand.New(rand.NewPCG(uint64(100+di), 1)), density, 2, 3, 8, 8)
		for _, c := range packedCases {
			var want gradResult
			for fi, f := range feeds {
				sp := tensor.PackSpikesOn(nil, dense)
				tp := NewTapeOn(nil)
				wv4, wv2 := tp.Var(w4.Clone()), tp.Var(w2.Clone())
				out := c.op(tp, f.feed(tp, sp, dense), wv4, wv2)
				tp.Backward(sumOf(tp, out))
				got := gradResult{out: out.Data, grads: []*tensor.Tensor{wv4.Grad, wv2.Grad}}
				name := fmt.Sprintf("%s d=%g: %s vs %s", c.name, density, f.name, feeds[0].name)
				if fi == 0 {
					want = got
				} else {
					assertSameResult(t, name, want, got)
				}
				if !sp.DenseInto(nil, tensor.New(sp.Shape()...)).AllClose(dense, 0) {
					t.Errorf("%s: the plane's bits changed", name)
				}
			}
		}
	}
}

// TestPackedOnlyConstantShapeAndWidePool pins the two remaining rules of
// a packed-only constant: its shape is the plane's, and a pool wider
// than one word — which has no popcount kernel — unpacks it instead of
// failing.
func TestPackedOnlyConstantShapeAndWidePool(t *testing.T) {
	dense := binaryAt(rand.New(rand.NewPCG(110, 1)), 0.3, 1, 1, 130, 130)
	sp := tensor.PackSpikesOn(nil, dense)
	tp := NewTapeOn(nil)
	x := tp.Spikes(sp)
	if x.Data != nil || x.Spikes() != sp || x.RequiresGrad() || !tensor.New(x.Shape()...).SameShape(dense) {
		t.Fatalf("packed-only constant of shape %v: %+v", x.Shape(), *x)
	}
	if flat := tp.Reshape(x, 1, -1); flat.Data != nil || flat.Shape()[1] != 130*130 {
		t.Fatalf("reshaped packed-only constant has shape %v, data %v", flat.Shape(), flat.Data)
	}
	if got, want := tp.AvgPool2D(x, 65), tp.AvgPool2D(tp.Const(dense), 65); !want.Data.AllClose(got.Data, 0) {
		t.Error("a 65-wide pool of a packed-only constant differs from the dense pool")
	}
}
