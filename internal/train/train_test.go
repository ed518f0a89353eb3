package train

import (
	"bytes"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// quadratic builds a single-parameter "model" minimising (w-3)² through
// the optimiser interface, by setting the gradient manually.
func quadStep(o Optimizer, w *nn.Param) {
	w.ZeroGrad()
	w.Grad.Data()[0] = 2 * (w.Data.Data()[0] - 3)
	o.Step([]*nn.Param{w})
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := nn.NewParam("w", tensor.Full(0))
	o := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		quadStep(o, w)
	}
	if math.Abs(w.Data.Item()-3) > 1e-3 {
		t.Errorf("Adam converged to %v, want 3", w.Data.Item())
	}
}

func smallData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultSynthConfig(n, 77)
	cfg.Size = 12
	d, err := dataset.SynthDigits(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Normalize()
	return d
}

func smallCNN(seed uint64) *nn.Sequential {
	r := tensor.NewRand(seed, 0)
	return nn.NewSequential(
		nn.NewConv2D(r, 1, 6, 3, 2, 1), // 12 -> 6
		nn.ReLU{},
		nn.Flatten{},
		nn.NewLinear(r, 6*6*6, 10),
	)
}

func TestFitReducesLossAndReportsAccuracy(t *testing.T) {
	ds := smallData(t, 120)
	model := smallCNN(1)
	var buf bytes.Buffer
	res, err := Fit(model, ds, Config{
		Epochs:    6,
		BatchSize: 24,
		Optimizer: NewAdam(3e-3),
		Log:       &buf,
		Shuffle:   tensor.NewRand(5, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.EpochLosses[0] {
		t.Errorf("loss did not fall: %v -> %v", res.EpochLosses[0], res.FinalLoss)
	}
	if res.TrainAccuracy < 0.5 {
		t.Errorf("train accuracy %v too low", res.TrainAccuracy)
	}
	if !strings.Contains(buf.String(), "epoch") {
		t.Error("no log output")
	}
	acc := Evaluate(model, ds, 32)
	if math.Abs(acc-res.TrainAccuracy) > 0.3 {
		t.Errorf("Evaluate %v inconsistent with training accuracy %v", acc, res.TrainAccuracy)
	}
}

func TestFitEarlyStop(t *testing.T) {
	ds := smallData(t, 60)
	model := smallCNN(2)
	res, err := Fit(model, ds, Config{
		Epochs:       50,
		BatchSize:    20,
		Optimizer:    NewAdam(5e-3),
		EarlyStopAcc: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 50 && res.TrainAccuracy < 0.6 {
		t.Skip("model failed to reach early-stop accuracy; nothing to assert")
	}
	if res.Epochs == 50 {
		t.Error("early stop did not trigger despite reaching threshold")
	}
}

func TestFitConfigValidation(t *testing.T) {
	ds := smallData(t, 10)
	if _, err := Fit(smallCNN(3), ds, Config{Epochs: 0, BatchSize: 4}); err == nil {
		t.Error("Epochs=0 accepted")
	}
	if _, err := Fit(smallCNN(3), ds, Config{Epochs: 1, BatchSize: 0}); err == nil {
		t.Error("BatchSize=0 accepted")
	}
}

func TestFitDivergenceDetection(t *testing.T) {
	ds := smallData(t, 20)
	model := smallCNN(4)
	// An absurd learning rate must produce NaN/Inf promptly and be
	// reported as an error, not a silent garbage model.
	_, err := Fit(model, ds, Config{Epochs: 30, BatchSize: 20, Optimizer: NewAdam(1e300)})
	if err == nil {
		t.Skip("model survived absurd LR; divergence path not exercised")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGradClip(t *testing.T) {
	p := nn.NewParam("p", tensor.New(3))
	p.Grad.CopyFrom(tensor.FromSlice([]float64{3, 4, 0}, 3)) // norm 5
	clipGrads([]*nn.Param{p}, 1)
	if n := tensor.Norm2(p.Grad); math.Abs(n-1) > 1e-12 {
		t.Errorf("clipped norm = %v, want 1", n)
	}
	// Below threshold: untouched.
	p.Grad.CopyFrom(tensor.FromSlice([]float64{0.1, 0, 0}, 3))
	clipGrads([]*nn.Param{p}, 1)
	if p.Grad.At(0) != 0.1 {
		t.Error("clip altered a small gradient")
	}
}

func TestPredict(t *testing.T) {
	ds := smallData(t, 60)
	model := smallCNN(5)
	if _, err := Fit(model, ds, Config{Epochs: 4, BatchSize: 20, Optimizer: NewAdam(3e-3)}); err != nil {
		t.Fatal(err)
	}
	preds := Predict(model, ds.X)
	if len(preds) != ds.Len() {
		t.Fatalf("Predict returned %d results", len(preds))
	}
	for i, p := range preds {
		if p < 0 || p >= ds.NumClasses() {
			t.Fatalf("prediction %d is class %d of %d", i, p, ds.NumClasses())
		}
	}
}

// spyBackend wraps a backend and records whether it was ever invoked, so
// tests can prove an ...On entry point actually runs on the caller's
// backend instead of silently substituting the default.
type spyBackend struct {
	compute.Backend
	used atomic.Bool
}

func (s *spyBackend) ParallelFor(n, grain int, fn func(lo, hi int)) {
	s.used.Store(true)
	s.Backend.ParallelFor(n, grain, fn)
}

// TestPredictOnUsesCallerBackend is the regression test for the bug
// where Predict built its tape on the default backend and ignored the
// caller's: PredictOn must route every kernel through the backend it was
// handed, and agree with Predict's results.
func TestPredictOnUsesCallerBackend(t *testing.T) {
	ds := smallData(t, 20)
	model := smallCNN(9)
	spy := &spyBackend{Backend: compute.NewSerial()}
	got := PredictOn(spy, model, ds.X)
	if !spy.used.Load() {
		t.Fatal("PredictOn never used the caller's backend")
	}
	want := Predict(model, ds.X)
	if len(got) != len(want) {
		t.Fatalf("PredictOn returned %d preds, Predict %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pred %d: PredictOn %d vs Predict %d", i, got[i], want[i])
		}
	}
}

// TestLogitsOnMatchesPredict pins the logits entry point the serve
// equivalence harness compares against: argmax of LogitsOn must equal
// PredictOn on the same backend.
func TestLogitsOnMatchesPredict(t *testing.T) {
	ds := smallData(t, 10)
	model := smallCNN(11)
	be := compute.NewSerial()
	logits := LogitsOn(be, model, ds.X)
	preds := PredictOn(be, model, ds.X)
	am := tensor.ArgmaxRowsOn(be, logits)
	for i := range preds {
		if am[i] != preds[i] {
			t.Fatalf("sample %d: argmax(LogitsOn)=%d, PredictOn=%d", i, am[i], preds[i])
		}
	}
}
