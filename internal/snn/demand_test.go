package snn

import (
	"fmt"
	"math"
	"testing"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// Gradient on demand must change what is computed, never a value: a
// gradient somebody reads has the same bits whatever else the tape was
// asked for. The table below crosses the model kinds with two backend
// widths and the odd conv geometries of tensor/batched_test.go.

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// demandGeometries are conv shapes from tensor's convCases: batch sizes
// around the worker count, odd spatial sizes, strides > 1, a kernel wider
// than the image.
var demandGeometries = []struct {
	n, c, h, w, f, k int
	p                tensor.ConvParams
}{
	{2, 3, 7, 9, 4, 3, tensor.ConvParams{Stride: 2, Padding: 1}},
	{5, 2, 8, 8, 3, 5, tensor.ConvParams{Stride: 1, Padding: 2}},
	{7, 2, 9, 7, 5, 3, tensor.ConvParams{Stride: 3, Padding: 2}},
	{2, 2, 3, 2, 3, 5, tensor.ConvParams{Stride: 1, Padding: 2}},
}

// demandModel is one model kind of the table; build returns fresh
// weights and a fresh encoder stream on every call.
type demandModel struct {
	name  string
	build func() nn.Classifier
}

const demandClasses = 3

// demandFixture returns geometry gi's input batch, labels and model
// kinds ({CNN, LIF, ALIF, membrane readout}).
func demandFixture(gi int) (x *tensor.Tensor, labels []int, models []demandModel) {
	g := demandGeometries[gi]
	flat := g.f * g.p.ConvOutSize(g.h, g.k) * g.p.ConvOutSize(g.w, g.k)
	x = tensor.RandU(tensor.NewRand(uint64(100+gi), 3), 0, 1, g.n, g.c, g.h, g.w)
	labels = make([]int, g.n)
	for i := range labels {
		labels[i] = i % demandClasses
	}
	spiking := func(mode ReadoutMode, adapt *Adaptation) func() nn.Classifier {
		return func() nn.Classifier {
			rr := tensor.NewRand(uint64(200+gi), 5)
			cfg := NeuronConfig{Vth: 0.5, Alpha: 0.9, Reset: ResetZero, Surrogate: FastSigmoid{Beta: 10}}
			return &Network{
				Encoder: NewNormalizedPoissonEncoder(1, 0, 1, 7, 9),
				Hidden: []Layer{
					{Syn: nn.NewConv2D(rr, g.c, g.f, g.k, g.p.Stride, g.p.Padding), Cfg: cfg, Adapt: adapt},
					{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(rr, flat, 6)), Cfg: cfg, Adapt: adapt},
				},
				Readout:    nn.NewLinear(rr, 6, demandClasses),
				ReadoutCfg: cfg,
				Mode:       mode,
				T:          4,
				LogitScale: 10,
			}
		}
	}
	models = []demandModel{
		{"cnn", func() nn.Classifier {
			rr := tensor.NewRand(uint64(200+gi), 5)
			return nn.NewSequential(
				nn.NewConv2D(rr, g.c, g.f, g.k, g.p.Stride, g.p.Padding), nn.ReLU{},
				nn.Flatten{}, nn.NewLinear(rr, flat, 6), nn.ReLU{}, nn.NewLinear(rr, 6, demandClasses))
		}},
		{"lif", spiking(ReadoutSpikeCount, nil)},
		{"alif", spiking(ReadoutSpikeCount, &Adaptation{Step: 0.2, Decay: 0.8})},
		{"membrane", spiking(ReadoutMembrane, nil)},
	}
	return x, labels, models
}

// demandRun records one forward/backward of model on x on a new tape and
// returns the logits, ∇ₓL (nil for a constant input) and the parameter
// gradients.
func demandRun(model nn.Classifier, be compute.Backend, x *tensor.Tensor, labels []int, frozen, varInput bool) (logits, dx *tensor.Tensor, dparams []*tensor.Tensor) {
	tp := autodiff.NewTapeOn(be)
	if frozen {
		tp = autodiff.NewFrozenTapeOn(be)
	}
	return demandRunOn(tp, model, x, labels, varInput)
}

// demandRunOn is demandRun on tp, which it releases.
func demandRunOn(tp *autodiff.Tape, model nn.Classifier, x *tensor.Tensor, labels []int, varInput bool) (logits, dx *tensor.Tensor, dparams []*tensor.Tensor) {
	xv := tp.Const(x)
	if varInput {
		xv = tp.Var(x)
	}
	out := model.Logits(tp, xv)
	tp.Backward(tp.SoftmaxCrossEntropy(out, labels))
	logits, dx = out.Data.Clone(), xv.Grad
	tp.Release()
	for _, p := range model.Params() {
		dparams = append(dparams, p.Grad)
	}
	return logits, dx, dparams
}

func TestGradientOnDemandBitIdentical(t *testing.T) {
	for gi := range demandGeometries {
		x, labels, models := demandFixture(gi)
		run := func(build func() nn.Classifier, be compute.Backend, frozen, varInput bool) (logits, dx *tensor.Tensor, dparams []*tensor.Tensor) {
			return demandRun(build(), be, x, labels, frozen, varInput)
		}
		for _, be := range []compute.Backend{compute.NewSerial(), compute.NewParallel(2)} {
			for _, m := range models {
				name := fmt.Sprintf("geometry %d %s width %d", gi, m.name, be.Workers())
				logits, dx, dparams := run(m.build, be, false, true) // every gradient asked for
				if tensor.NormInf(dx) == 0 || tensor.NormInf(dparams[0]) == 0 {
					t.Fatalf("%s: zero reference gradient, the comparison would be vacuous", name)
				}

				fLogits, fdx, fparams := run(m.build, be, true, true)
				if !sameBits(logits, fLogits) {
					t.Errorf("%s: frozen parameters changed the logits", name)
				}
				if !sameBits(dx, fdx) {
					t.Errorf("%s: input gradient differs between the frozen and the all-leaf tape", name)
				}
				for i, g := range fparams {
					for _, v := range g.Data() {
						if math.Float64bits(v) != 0 {
							t.Fatalf("%s: frozen tape wrote parameter gradient %d", name, i)
						}
					}
				}

				_, cdx, cparams := run(m.build, be, false, false)
				if cdx != nil {
					t.Errorf("%s: constant input grew a gradient", name)
				}
				for i := range dparams {
					if !sameBits(dparams[i], cparams[i]) {
						t.Errorf("%s: parameter gradient %d differs between a constant and a variable input", name, i)
					}
				}
			}
		}
	}
}

// denseTrain replays a spike train as dense constants: the reference a
// packed-only replay is held to.
type denseTrain struct{ SpikeTrainEncoder }

func (e *denseTrain) Encode(tp *autodiff.Tape, _ *autodiff.Value, t int) *autodiff.Value {
	return tp.Const(e.Planes[t].DenseInto(tp.Backend(), tensor.New(e.Planes[t].Shape()...)))
}

// A replayed spike train reaches the network packed-only: the logits and
// the weight gradients of a recording tape must equal those of the same
// train replayed as dense constants.
func TestSpikeTrainReplayGradientsPackedEqualDense(t *testing.T) {
	x, labels, models := pooledFixture()
	run := func(packed bool) (*tensor.Tensor, []*tensor.Tensor) {
		net := models[1].build().(*Network)
		r := tensor.NewRand(400, 7) // the same train on every run
		planes := make([]*tensor.SpikeTensor, net.T)
		for i := range planes {
			plane := tensor.RandU(r, 0, 1, x.Shape()...)
			for j, v := range plane.Data() {
				if v < 0.3 {
					plane.Data()[j] = 1
				} else {
					plane.Data()[j] = 0
				}
			}
			planes[i] = tensor.PackSpikesOn(nil, plane)
		}
		net.Encoder = &denseTrain{SpikeTrainEncoder{Planes: planes}}
		if packed {
			net.Encoder = &SpikeTrainEncoder{Planes: planes}
		}
		logits, dx, dparams := demandRun(net, compute.NewSerial(), x, labels, false, true)
		if tensor.NormInf(dx) != 0 {
			t.Errorf("packed %v: a gradient reached the static input behind a replayed train", packed)
		}
		return logits, dparams
	}
	wantLogits, want := run(false)
	if tensor.NormInf(want[0]) == 0 {
		t.Fatal("zero reference gradient, the comparison would be vacuous")
	}
	logits, got := run(true)
	if !sameBits(wantLogits, logits) {
		t.Error("packed-only replay changed the logits")
	}
	for i := range want {
		if !sameBits(want[i], got[i]) {
			t.Errorf("parameter gradient %d differs between the packed-only and the dense replay", i)
		}
	}
}
