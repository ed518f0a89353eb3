package attack

import (
	"fmt"
	"math"

	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// Evaluation summarises one attack run against one model, mirroring
// Algorithm 1 of the paper: Robustness(ε) = 1 − Adv/|D| where Adv counts
// samples the adversary successfully flips.
type Evaluation struct {
	AttackName string
	// CleanAccuracy is the accuracy on the unperturbed inputs.
	CleanAccuracy float64
	// RobustAccuracy is the accuracy on the adversarial inputs — the
	// paper's robustness metric.
	RobustAccuracy float64
	// SuccessRate is the fraction of *correctly classified* samples the
	// attack flipped (attack success as attackers count it).
	SuccessRate float64
	// MeanLinf is the average L∞ distortion actually used.
	MeanLinf float64
	// N is the number of evaluated samples.
	N int
}

// String renders a one-line summary.
func (e Evaluation) String() string {
	return fmt.Sprintf("%s: clean %.3f, robust %.3f, success %.3f, mean L∞ %.3f (n=%d)",
		e.AttackName, e.CleanAccuracy, e.RobustAccuracy, e.SuccessRate, e.MeanLinf, e.N)
}

// Evaluate runs the attack over the dataset in batches and scores it on
// the default backend.
func Evaluate(model nn.Classifier, ds *dataset.Dataset, atk Attack, batchSize int) Evaluation {
	return EvaluateOn(nil, model, ds, atk, batchSize)
}

// EvaluateOn is Evaluate with the clean and adversarial forward passes on
// an explicit compute backend (nil selects the default). The attack's own
// gradient computations use the backend it was configured with.
func EvaluateOn(be compute.Backend, model nn.Classifier, ds *dataset.Dataset, atk Attack, batchSize int) Evaluation {
	ev := Evaluation{AttackName: atk.Name()}
	cleanCorrect, robustCorrect, flipped, attackable := 0, 0, 0, 0
	var linfSum float64
	for _, b := range ds.Batches(batchSize) {
		cleanPred := train.PredictOn(be, model, b.X)
		adv := atk.Perturb(model, b.X, b.Y)
		advPred := train.PredictOn(be, model, adv)
		linfSum += batchLinf(b.X, adv) * float64(len(b.Y))
		for i, y := range b.Y {
			cleanOK := cleanPred[i] == y
			advOK := advPred[i] == y
			if cleanOK {
				cleanCorrect++
				attackable++
				if !advOK {
					flipped++
				}
			}
			if advOK {
				robustCorrect++
			}
			ev.N++
		}
	}
	ev.CleanAccuracy = float64(cleanCorrect) / float64(ev.N)
	ev.RobustAccuracy = float64(robustCorrect) / float64(ev.N)
	if attackable > 0 {
		ev.SuccessRate = float64(flipped) / float64(attackable)
	}
	ev.MeanLinf = linfSum / float64(ev.N)
	return ev
}

// CurvePoint is one (ε, robust accuracy) sample of a robustness curve.
type CurvePoint struct {
	Eps            float64
	RobustAccuracy float64
}

// Curve evaluates robust accuracy across a sweep of ε budgets, using
// mkAttack to build the attack for each budget (ε=0 short-circuits to the
// clean accuracy). This regenerates the accuracy-vs-ε plots of the
// paper's Figures 1 and 9.
func Curve(model nn.Classifier, ds *dataset.Dataset, epsilons []float64, mkAttack func(eps float64) Attack, batchSize int) []CurvePoint {
	return CurveOn(nil, model, ds, epsilons, mkAttack, batchSize)
}

// CurveOn is Curve on an explicit compute backend (nil selects the
// default).
func CurveOn(be compute.Backend, model nn.Classifier, ds *dataset.Dataset, epsilons []float64, mkAttack func(eps float64) Attack, batchSize int) []CurvePoint {
	out := make([]CurvePoint, 0, len(epsilons))
	for _, eps := range epsilons {
		var atk Attack
		if eps == 0 {
			atk = Identity{}
		} else {
			atk = mkAttack(eps)
		}
		ev := EvaluateOn(be, model, ds, atk, batchSize)
		out = append(out, CurvePoint{Eps: eps, RobustAccuracy: ev.RobustAccuracy})
	}
	return out
}

// batchLinf returns the L∞ distance max |a[i] − b[i]| between two
// tensors of one shape.
func batchLinf(a, b *tensor.Tensor) float64 {
	var m float64
	bd := b.Data()
	for i, v := range a.Data() {
		if d := math.Abs(v - bd[i]); d > m {
			m = d
		}
	}
	return m
}
