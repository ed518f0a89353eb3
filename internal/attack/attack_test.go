package attack

import (
	"math"
	"strings"
	"sync"
	"testing"

	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

func testData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultSynthConfig(n, 99)
	cfg.Size = 12
	d, err := dataset.SynthDigits(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Normalize()
	return d
}

func trainedCNN(t *testing.T, ds *dataset.Dataset, seed uint64) *nn.Sequential {
	t.Helper()
	r := tensor.NewRand(seed, 0)
	model := nn.NewSequential(
		nn.NewConv2D(r, 1, 6, 3, 2, 1),
		nn.ReLU{},
		nn.Flatten{},
		nn.NewLinear(r, 6*6*6, 10),
	)
	if _, err := train.Fit(model, ds, train.Config{Epochs: 8, BatchSize: 24, Optimizer: train.NewAdam(3e-3)}); err != nil {
		t.Fatal(err)
	}
	return model
}

func trainedSNN(t *testing.T, ds *dataset.Dataset, seed uint64) *snn.Network {
	t.Helper()
	r := tensor.NewRand(seed, 0)
	cfg := snn.NeuronConfig{Vth: 0.75, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 5}}
	net := &snn.Network{
		Encoder: snn.ConstantCurrentEncoder{Gain: 1},
		Hidden: []snn.Layer{
			{Syn: nn.NewSequential(nn.NewConv2D(r, 1, 6, 3, 2, 1), nn.Flatten{}), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 6*6*6, 10),
		ReadoutCfg: cfg,
		Mode:       snn.ReadoutSpikeCount,
		T:          8,
		LogitScale: 10,
	}
	if _, err := train.Fit(net, ds, train.Config{Epochs: 8, BatchSize: 24, Optimizer: train.NewAdam(3e-3), GradClip: 5}); err != nil {
		t.Fatal(err)
	}
	return net
}

// inBounds reports whether every element of x lies in [lo, hi] up to
// rounding.
func inBounds(x *tensor.Tensor, lo, hi float64) bool {
	for _, v := range x.Data() {
		if v > hi+1e-9 || v < lo-1e-9 {
			return false
		}
	}
	return true
}

func TestInputGradientNonZero(t *testing.T) {
	ds := testData(t, 40)
	model := trainedCNN(t, ds, 1)
	b := ds.Batches(8)[0]
	g := InputGradient(model, b.X, b.Y)
	if tensor.NormInf(g) == 0 {
		t.Fatal("input gradient identically zero")
	}
	if !g.SameShape(b.X) {
		t.Fatal("gradient shape mismatch")
	}
}

func TestFGSMRespectsBudgetAndBounds(t *testing.T) {
	ds := testData(t, 40)
	model := trainedCNN(t, ds, 2)
	lo, hi := ds.Bounds()
	atk := FGSM{Eps: 0.3, Bounds: Bounds{Lo: lo, Hi: hi}}
	b := ds.Batches(16)[0]
	adv := atk.Perturb(model, b.X, b.Y)
	if d := tensor.NormInf(tensor.Sub(adv, b.X)); d > 0.3+1e-9 {
		t.Errorf("FGSM L∞ distortion %v exceeds ε", d)
	}
	if !inBounds(adv, lo, hi) {
		t.Error("FGSM left pixel bounds")
	}
	// Original untouched.
	if !b.X.AllClose(ds.Batches(16)[0].X, 0) {
		t.Error("FGSM mutated its input")
	}
}

func TestPGDRespectsBudgetAndBounds(t *testing.T) {
	ds := testData(t, 40)
	model := trainedCNN(t, ds, 3)
	atk := PGD{Eps: 0.5, Steps: 5, RandomStart: true, Rand: tensor.NewRand(1, 1), Bounds: DatasetBounds(ds)}
	b := ds.Batches(16)[0]
	adv := atk.Perturb(model, b.X, b.Y)
	if d := tensor.NormInf(tensor.Sub(adv, b.X)); d > 0.5+1e-9 {
		t.Errorf("PGD L∞ distortion %v exceeds ε", d)
	}
	lo, hi := ds.Bounds()
	if !inBounds(adv, lo, hi) {
		t.Error("PGD left pixel bounds")
	}
}

func TestPGDDefaults(t *testing.T) {
	a := PGD{Eps: 1}
	if a.effectiveSteps() != 10 {
		t.Errorf("default steps = %d", a.effectiveSteps())
	}
	if math.Abs(a.effectiveAlpha()-0.25) > 1e-12 {
		t.Errorf("default alpha = %v, want 2.5·ε/steps = 0.25", a.effectiveAlpha())
	}
	if !strings.Contains(a.Name(), "pgd") {
		t.Error("bad name")
	}
}

func TestPGDRandomStartNeedsRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RandomStart without generator did not panic")
		}
	}()
	ds := testData(t, 10)
	model := trainedCNN(t, ds, 4)
	b := ds.Batches(4)[0]
	PGD{Eps: 0.1, RandomStart: true, Bounds: DatasetBounds(ds)}.Perturb(model, b.X, b.Y)
}

func TestPGDDegradesAccuracyMoreThanFGSM(t *testing.T) {
	ds := testData(t, 80)
	model := trainedCNN(t, ds, 5)
	bounds := DatasetBounds(ds)
	eps := 1.0
	evF := Evaluate(model, ds, FGSM{Eps: eps, Bounds: bounds}, 20)
	evP := Evaluate(model, ds, PGD{Eps: eps, Steps: 10, Bounds: bounds}, 20)
	if evP.RobustAccuracy > evF.RobustAccuracy+0.05 {
		t.Errorf("PGD (%v) should be at least as strong as FGSM (%v)", evP.RobustAccuracy, evF.RobustAccuracy)
	}
	if evF.CleanAccuracy < 0.5 {
		t.Fatalf("model too weak for the comparison: clean %v", evF.CleanAccuracy)
	}
}

func TestStrongPGDBreaksCNN(t *testing.T) {
	ds := testData(t, 60)
	model := trainedCNN(t, ds, 6)
	ev := Evaluate(model, ds, PGD{Eps: 3, Steps: 15, Bounds: DatasetBounds(ds)}, 20)
	if ev.RobustAccuracy > ev.CleanAccuracy/2 {
		t.Errorf("huge-ε PGD barely hurt the CNN: clean %v, robust %v", ev.CleanAccuracy, ev.RobustAccuracy)
	}
}

func TestWhiteBoxPGDWorksOnSNN(t *testing.T) {
	// The central mechanic of the paper: PGD must be able to attack the
	// SNN through surrogate-gradient BPTT.
	ds := testData(t, 60)
	net := trainedSNN(t, ds, 7)
	evClean := Evaluate(net, ds, Identity{}, 20)
	if evClean.CleanAccuracy < 0.4 {
		t.Fatalf("SNN too weak to attack meaningfully: %v", evClean.CleanAccuracy)
	}
	ev := Evaluate(net, ds, PGD{Eps: 3, Steps: 10, Bounds: DatasetBounds(ds)}, 20)
	if ev.RobustAccuracy >= ev.CleanAccuracy {
		t.Errorf("PGD had no effect on the SNN: clean %v, robust %v", ev.CleanAccuracy, ev.RobustAccuracy)
	}
}

func TestGaussianNoiseBaseline(t *testing.T) {
	ds := testData(t, 40)
	model := trainedCNN(t, ds, 8)
	atk := GaussianNoise{Std: 0.1, Rand: tensor.NewRand(2, 2), Bounds: DatasetBounds(ds)}
	b := ds.Batches(16)[0]
	adv := atk.Perturb(model, b.X, b.Y)
	if adv.AllClose(b.X, 0) {
		t.Error("noise attack changed nothing")
	}
	lo, hi := ds.Bounds()
	if !inBounds(adv, lo, hi) {
		t.Error("noise left bounds")
	}
}

func TestGaussianNeedsRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GaussianNoise without generator did not panic")
		}
	}()
	GaussianNoise{Std: 0.1}.Perturb(nil, tensor.New(1, 1, 2, 2), nil)
}

func TestIdentityAttack(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	adv := Identity{}.Perturb(nil, x, nil)
	if !adv.AllClose(x, 0) {
		t.Error("identity changed input")
	}
	adv.Data()[0] = 9
	if x.Data()[0] == 9 {
		t.Error("identity returned the same storage")
	}
}

func TestEvaluationMetricsConsistency(t *testing.T) {
	ds := testData(t, 50)
	model := trainedCNN(t, ds, 9)
	ev := Evaluate(model, ds, PGD{Eps: 0.5, Steps: 5, Bounds: DatasetBounds(ds)}, 16)
	if ev.N != 50 {
		t.Errorf("N = %d", ev.N)
	}
	if ev.RobustAccuracy > ev.CleanAccuracy+1e-9 {
		t.Errorf("robust accuracy %v exceeds clean %v under attack", ev.RobustAccuracy, ev.CleanAccuracy)
	}
	if ev.SuccessRate < 0 || ev.SuccessRate > 1 {
		t.Errorf("success rate %v out of [0,1]", ev.SuccessRate)
	}
	if ev.MeanLinf > 0.5+1e-9 {
		t.Errorf("mean L∞ %v exceeds ε", ev.MeanLinf)
	}
	if !strings.Contains(ev.String(), "pgd") {
		t.Error("String() lacks attack name")
	}
}

func TestCurveMonotoneAnchorsAtClean(t *testing.T) {
	ds := testData(t, 50)
	model := trainedCNN(t, ds, 10)
	bounds := DatasetBounds(ds)
	eps := []float64{0, 0.5, 2}
	curve := Curve(model, ds, eps, func(e float64) Attack {
		return PGD{Eps: e, Steps: 5, Bounds: bounds}
	}, 16)
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	clean := Evaluate(model, ds, Identity{}, 16).CleanAccuracy
	if math.Abs(curve[0].RobustAccuracy-clean) > 1e-9 {
		t.Errorf("ε=0 point %v should equal clean accuracy %v", curve[0].RobustAccuracy, clean)
	}
	// PGD at large ε must be no better than at small ε (allowing a tiny
	// tolerance for attack stochasticity).
	if curve[2].RobustAccuracy > curve[1].RobustAccuracy+0.1 {
		t.Errorf("robustness increased with ε: %v", curve)
	}
}

func TestFGSMZeroEpsilonIsIdentityModuloClip(t *testing.T) {
	ds := testData(t, 20)
	model := trainedCNN(t, ds, 11)
	b := ds.Batches(8)[0]
	adv := FGSM{Eps: 0, Bounds: DatasetBounds(ds)}.Perturb(model, b.X, b.Y)
	if !adv.AllClose(b.X, 1e-12) {
		t.Error("ε=0 FGSM changed the input")
	}
}

// An attack reads the victim and never writes it: the gradient tape
// records the parameters as constants, so after any attack every
// Param.Grad is still bit-zero. (The all-leaf tape used to accumulate
// the weight gradients of every PGD step into the model.)
func TestAttacksLeaveVictimGradientsZero(t *testing.T) {
	ds := testData(t, 40)
	lo, hi := ds.Bounds()
	bounds := Bounds{Lo: lo, Hi: hi}
	b := ds.Batches(8)[0]
	victims := []struct {
		name  string
		model nn.Classifier
	}{
		{"cnn", trainedCNN(t, ds, 11)},
		{"snn", trainedSNN(t, ds, 12)},
	}
	attacks := []struct {
		name string
		run  func(m nn.Classifier)
	}{
		{"InputGradient", func(m nn.Classifier) { InputGradient(m, b.X, b.Y) }},
		{"FGSM", func(m nn.Classifier) { FGSM{Eps: 0.3, Bounds: bounds}.Perturb(m, b.X, b.Y) }},
		{"PGD", func(m nn.Classifier) { PGD{Eps: 0.3, Steps: 3, Bounds: bounds}.Perturb(m, b.X, b.Y) }},
	}
	for _, v := range victims {
		for _, p := range v.model.Params() {
			p.ZeroGrad() // training left the last batch's gradients behind
		}
		for _, a := range attacks {
			a.run(v.model)
			for _, p := range v.model.Params() {
				for i, g := range p.Grad.Data() {
					if math.Float64bits(g) != 0 {
						t.Fatalf("%s on %s wrote %s.Grad[%d] = %v", a.name, v.name, p.Name, i, g)
					}
				}
			}
		}
	}
}

// Two goroutines may attack one model at once (its encoder being
// stateless): nothing the gradient tape touches is shared and written.
// Run under -race.
func TestConcurrentAttacksOnOneModel(t *testing.T) {
	ds := testData(t, 40)
	lo, hi := ds.Bounds()
	atk := PGD{Eps: 0.3, Steps: 2, Bounds: Bounds{Lo: lo, Hi: hi}}
	b := ds.Batches(8)[0]
	for _, model := range []nn.Classifier{trainedCNN(t, ds, 13), trainedSNN(t, ds, 14)} {
		want := atk.Perturb(model, b.X, b.Y)
		got := make([]*tensor.Tensor, 2)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = atk.Perturb(model, b.X, b.Y)
			}()
		}
		wg.Wait()
		for _, adv := range got {
			if !adv.AllClose(want, 0) {
				t.Error("concurrent attack differs from the sequential one")
			}
		}
	}
}

// signStep and batchLinf do in place what Axpy(α, Sign(g), adv) and
// NormInf(Sub(a, b)) did through temporaries; the arithmetic — and so
// every adversarial example — must be bit for bit the same, with
// sign(0) = sign(NaN) = 0.
func TestInPlaceSignStepAndLinf(t *testing.T) {
	g := tensor.FromSlice([]float64{3, -0.5, 0, math.NaN(), math.Copysign(0, -1)}, 5)
	for _, alpha := range []float64{0.3, -0.7} {
		adv := tensor.FromSlice([]float64{0.1, 0.2, 0.3, 0.4, math.Copysign(0, -1)}, 5)
		want := adv.Clone()
		for i, s := range []float64{1, -1, 0, 0, 0} {
			want.Data()[i] += alpha * s
		}
		signStep(adv, g, alpha)
		for i := range want.Data() {
			if math.Float64bits(adv.Data()[i]) != math.Float64bits(want.Data()[i]) {
				t.Errorf("alpha %v: element %d = %v, want %v", alpha, i, adv.Data()[i], want.Data()[i])
			}
		}
	}
	a := tensor.FromSlice([]float64{1, -2, 0.5}, 3)
	b := tensor.FromSlice([]float64{0.25, 1.5, 0.5}, 3)
	if got, want := batchLinf(a, b), tensor.NormInf(tensor.Sub(a, b)); got != want {
		t.Errorf("batchLinf = %v, want %v", got, want)
	}
}
