package main

import (
	"encoding/binary"
	"math"
	"time"
)

// pgdCurves is the paper's Fig. 1 measurement: robust accuracy of the CNN
// and of SNN(Vth 1, T 8) across a sweep of PGD budgets. It runs the same
// snn/autodiff/tensor layers as alg1_sweep used differently — gradient
// with respect to the input, no optimizer, two tape-paying evaluation
// forwards per batch, the dense CNN path, one goroutine — so a
// training-side gain that costs input-gradient or evaluation speed shows
// here.
type pgdCurves struct {
	seed uint64
	set  *trainedSet
	eval *datasetT
}

const (
	pgdEvalN = 96
	pgdSteps = 5
	pgdBatch = 32
)

var pgdEpsilons = []float64{0, 1, 2}

func (w *pgdCurves) setup(seed uint64) (float64, error) {
	t0 := time.Now()
	set, err := trainCheckpoints(true)
	if err != nil {
		return 0, err
	}
	eval, err := evalDigits(pgdEvalN, seed)
	if err != nil {
		return 0, err
	}
	w.seed, w.set, w.eval = seed, set, eval
	return time.Since(t0).Seconds(), nil
}

// victim is one model the lap attacks: its checkpoint bytes and the name
// of its curve's span.
type victim struct {
	span string
	raw  []byte
}

// models lists the lap's two victims in order.
func (w *pgdCurves) models() []victim {
	return []victim{{"attack.curve.cnn", w.set.cnn}, {"attack.curve.snn", w.set.snn}}
}

func (w *pgdCurves) mkAttack(eps float64) attackT {
	return pgdAttack{
		Eps:         eps,
		Steps:       pgdSteps,
		RandomStart: true,
		Rand:        newRand(w.seed, 0xadd),
		Bounds:      attackDatasetBounds(w.eval),
		Backend:     serial,
	}
}

func (w *pgdCurves) check(g *gates) {
	// Before any lap: the CNN's ε = 0 point is its clean accuracy, exactly.
	cnn, _, err := modelFromBytes(w.set.cnn)
	if err != nil {
		g.failf("CNN from checkpoint: %v", err)
		return
	}
	clean := evaluateOn(serial, cnn, w.eval, pgdBatch)
	curve := attackCurveOn(serial, cnn, w.eval, pgdEpsilons[:1], w.mkAttack, pgdBatch)
	g.equal("CNN robust accuracy at eps 0 vs its clean accuracy", curve[0].RobustAccuracy, clean)
}

func (w *pgdCurves) kinds() int { return 1 }

// procs: the lap is one goroutine.
func (w *pgdCurves) procs() int { return 1 }

// curvesOut turns the lap's curves into its report. An evaluation whose
// robust accuracy at ε > 0 exceeds the ε = 0 reading by more than 0.05 is
// a failed op: the attack must never help the defender.
func curvesOut(curves [][]curvePoint, wall time.Duration) lapOut {
	out := lapOut{
		latencyMS:   float64(wall.Nanoseconds()) / 1e6,
		countAllocs: true,
	}
	var raw []byte
	for _, c := range curves {
		for _, p := range c {
			out.ops++
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(p.Eps))
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(p.RobustAccuracy))
			if p.RobustAccuracy > c[0].RobustAccuracy+0.05 {
				out.failed++
			}
		}
	}
	out.hash = hashBytes(raw)
	out.workPerS = float64(out.ops) / wall.Seconds()
	return out
}

func (w *pgdCurves) lap(int) (lapOut, error) {
	t0 := time.Now()
	var curves [][]curvePoint
	for _, v := range w.models() {
		model, _, err := modelFromBytes(v.raw)
		if err != nil {
			return lapOut{}, err
		}
		curves = append(curves, attackCurveOn(serial, model, w.eval, pgdEpsilons, w.mkAttack, pgdBatch))
	}
	return curvesOut(curves, time.Since(t0)), nil
}

// tracedLap does what attack.CurveOn does, call for call and in its
// order — clean prediction, Perturb, adversarial prediction per batch —
// so the rate encoder's stream, and with it every curve, comes out as in
// the untraced lap; each call is a span.
func (w *pgdCurves) tracedLap(r *tracedRun, lap int) ([][]curvePoint, time.Duration, error) {
	t0 := time.Now()
	lapID := r.spans.begin("pgd.lap", 0, lap)
	var curves [][]curvePoint
	for _, v := range w.models() {
		model, _, err := modelFromBytes(v.raw)
		if err != nil {
			return nil, 0, err
		}
		mid := r.spans.begin(v.span, lapID, lap)
		var curve []curvePoint
		for _, eps := range pgdEpsilons {
			var atk attackT = identity{}
			if eps != 0 {
				atk = w.mkAttack(eps)
			}
			eid := r.spans.begin("attack.eps", mid, lap)
			correct := 0
			for _, b := range w.eval.Batches(pgdBatch) {
				bid := r.spans.begin("attack.batch", eid, lap)
				var adv *tensorT
				var advPred []int
				r.spans.time("train.PredictOn", bid, lap, func() { predictOn(serial, model, b.X) })
				name := "attack.PGD.Perturb"
				if eps == 0 {
					name = "attack.Identity.Perturb"
				}
				r.spans.time(name, bid, lap, func() { adv = atk.Perturb(model, b.X, b.Y) })
				r.spans.time("train.PredictOn", bid, lap, func() { advPred = predictOn(serial, model, adv) })
				r.spans.end(bid)
				for i, y := range b.Y {
					if advPred[i] == y {
						correct++
					}
				}
			}
			r.spans.end(eid)
			curve = append(curve, curvePoint{Eps: eps, RobustAccuracy: float64(correct) / float64(w.eval.Len())})
		}
		r.spans.end(mid)
		curves = append(curves, curve)
	}
	r.spans.end(lapID)
	return curves, time.Since(t0), nil
}

func (w *pgdCurves) traced(r *tracedRun) error {
	w.check(r.gates)
	ref, err := w.lap(0)
	if err != nil {
		return err
	}
	r.failed += ref.failed

	var perturb, eval, cnnCurve, advRate []float64
	batches := (w.eval.Len() + pgdBatch - 1) / pgdBatch
	start := time.Now()
	r.lapsBegin()
	laps := 0
	for last := time.Duration(0); laps == 0 || lapsLeft(time.Since(start), last, r.budget*6/10); laps++ {
		curves, wall, err := w.tracedLap(r, laps)
		if err != nil {
			return err
		}
		out := curvesOut(curves, wall)
		r.ops += out.ops
		r.failed += out.failed
		r.gates.equal("traced curves hash", out.hash, ref.hash)
		p := r.spans.sum("attack.PGD.Perturb", laps).Seconds()
		perturb = append(perturb, p)
		eval = append(eval, r.spans.sum("train.PredictOn", laps).Seconds())
		cnnCurve = append(cnnCurve, r.spans.sum("attack.curve.cnn", laps).Seconds())
		advRate = append(advRate, float64(w.eval.Len()*(len(pgdEpsilons)-1)*len(w.models()))/p)
		last = wall
	}
	r.lapsEnd(laps * len(pgdEpsilons) * len(w.models()))
	r.set("attack.perturb_s", median(perturb))
	r.set("attack.eval_s", median(eval))
	r.set("attack.cnn_curve_s", median(cnnCurve))
	r.set("attack.grad_steps", float64(batches*pgdSteps*(len(pgdEpsilons)-1)*len(w.models())))
	r.set("attack.adv_examples_per_s", median(advRate))

	// Step probes, as the attack takes a step: gradient down to the input.
	b := w.eval.Batches(pgdBatch)[0]
	net, err := snnFromBytes(w.set.snn)
	if err != nil {
		return err
	}
	step := probeStep(net, b.X, b.Y, true)
	step.report(r)
	cnn, _, err := modelFromBytes(w.set.cnn)
	if err != nil {
		return err
	}
	fwd, bwd, _ := probeForwardBackward(cnn, b.X, b.Y, true)
	r.set("nn.cnn_forward_ms", fwd)
	r.set("nn.cnn_backward_ms", bwd)
	probeKernels(r, pgdBatch, step.density)
	return probeBackends(r, net, b.X)
}
