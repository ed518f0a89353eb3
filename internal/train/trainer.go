package train

import (
	"fmt"
	"math"
	"math/rand/v2"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// Config parameterises a training run.
type Config struct {
	Epochs    int
	BatchSize int
	// Backend is the compute backend every tape of this run executes on;
	// nil selects compute.Default(). The exploration sweep hands each
	// grid-point worker a bounded-width backend here so grid-level and
	// kernel-level parallelism compose without oversubscription.
	Backend compute.Backend
	// Optimizer defaults to Adam(1e-3) when nil.
	Optimizer Optimizer
	// GradClip, when positive, rescales each parameter gradient to at
	// most this L2 norm — essential for stabilising deep BPTT.
	GradClip float64
	// Shuffle reshuffles the order the training set is drawn in each
	// epoch with this generator; nil draws it in stored order. The
	// dataset itself is never written.
	Shuffle *rand.Rand
}

// Result summarises a training run.
type Result struct {
	EpochLosses []float64
	FinalLoss   float64
	// TrainAccuracy is measured on the training set after the last
	// epoch.
	TrainAccuracy float64
	Epochs        int
}

// Fit trains the classifier on ds with softmax cross-entropy. It reads
// ds and does not modify it.
func Fit(model nn.Classifier, ds *dataset.Dataset, cfg Config) (*Result, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: Epochs must be positive, got %d", cfg.Epochs)
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("train: BatchSize must be positive, got %d", cfg.BatchSize)
	}
	opt := cfg.Optimizer
	if opt == nil {
		opt = NewAdam(1e-3)
	}
	res := &Result{}
	// order carries across epochs: each epoch's shuffle permutes the
	// previous epoch's order.
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Shuffle != nil {
			dataset.ShuffleOrder(order, cfg.Shuffle)
		}
		var epochLoss float64
		var batches int
		correct, seen := 0, 0
		for _, b := range ds.BatchesIn(order, cfg.BatchSize) {
			for _, p := range model.Params() {
				p.ZeroGrad()
			}
			tp := autodiff.NewTapeOn(cfg.Backend)
			x := tp.Const(b.X)
			logits := model.Logits(tp, x)
			loss := tp.SoftmaxCrossEntropy(logits, b.Y)
			lv := loss.Data.Item()
			if math.IsNaN(lv) || math.IsInf(lv, 0) {
				return nil, fmt.Errorf("train: loss diverged to %v at epoch %d", lv, epoch)
			}
			epochLoss += lv
			batches++
			tp.Backward(loss)
			if cfg.GradClip > 0 {
				clipGrads(model.Params(), cfg.GradClip)
			}
			opt.Step(model.Params())
			for i, p := range tensor.ArgmaxRowsOn(tp.Backend(), logits.Data) {
				if p == b.Y[i] {
					correct++
				}
				seen++
			}
			// The batch is fully consumed (loss read, gradients applied,
			// predictions scored): return the forward intermediates — the
			// T-step spike/membrane planes of an unrolled SNN — to the
			// backend arena instead of holding them until the next GC.
			tp.Release()
		}
		avg := epochLoss / float64(batches)
		acc := float64(correct) / float64(seen)
		res.EpochLosses = append(res.EpochLosses, avg)
		res.FinalLoss = avg
		res.TrainAccuracy = acc
		res.Epochs = epoch + 1
	}
	return res, nil
}

// clipGrads rescales each parameter gradient to L2 norm at most c.
func clipGrads(params []*nn.Param, c float64) {
	for _, p := range params {
		n := tensor.Norm2(p.Grad)
		if n > c {
			tensor.ScaleInto(p.Grad, c/n)
		}
	}
}

// Evaluate returns classification accuracy of the model on ds, processed
// in batches of batchSize, on the default backend.
func Evaluate(model nn.Classifier, ds *dataset.Dataset, batchSize int) float64 {
	return EvaluateOn(nil, model, ds, batchSize)
}

// EvaluateOn is Evaluate on an explicit compute backend (nil selects the
// default).
func EvaluateOn(be compute.Backend, model nn.Classifier, ds *dataset.Dataset, batchSize int) float64 {
	correct := 0
	for _, b := range ds.Batches(batchSize) {
		for i, p := range PredictOn(be, model, b.X) {
			if p == b.Y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}

// Predict returns the predicted class of each sample in x [N,1,H,W] on
// the default backend.
func Predict(model nn.Classifier, x *tensor.Tensor) []int {
	return PredictOn(nil, model, x)
}

// PredictOn is Predict on an explicit compute backend (nil selects the
// default).
func PredictOn(be compute.Backend, model nn.Classifier, x *tensor.Tensor) []int {
	preds, _ := predictLogitsOn(be, model, x, false)
	return preds
}

// LogitsOn runs one gradient-free forward pass on an explicit backend
// (nil selects the default) and returns a copy of the logits that
// survives the tape's arena release — what serve.Engine does on a tape
// it keeps.
func LogitsOn(be compute.Backend, model nn.Classifier, x *tensor.Tensor) *tensor.Tensor {
	_, logits := predictLogitsOn(be, model, x, true)
	return logits
}

// predictLogitsOn is the one evaluation forward: a frozen tape with a
// constant input, so nothing on it requires a gradient and the layers
// keep nothing for a pullback; what outlives the tape is read or copied
// out before its arena release.
func predictLogitsOn(be compute.Backend, model nn.Classifier, x *tensor.Tensor, wantLogits bool) ([]int, *tensor.Tensor) {
	tp := autodiff.NewFrozenTapeOn(be)
	logits := model.Logits(tp, tp.Const(x)).Data
	var preds []int
	var out *tensor.Tensor
	if wantLogits {
		out = logits.Clone()
	} else {
		preds = tensor.ArgmaxRowsOn(tp.Backend(), logits)
	}
	tp.Release()
	return preds, out
}
