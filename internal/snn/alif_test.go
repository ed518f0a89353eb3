package snn

import (
	"math"
	"testing"

	"snnsec/internal/autodiff"
	"snnsec/internal/tensor"
)

func alifCfg(vth, step, decay float64) AdaptiveConfig {
	return AdaptiveConfig{
		NeuronConfig: NeuronConfig{Vth: vth, Alpha: 1, Reset: ResetZero, Surrogate: FastSigmoid{Beta: 5}},
		AdaptStep:    step,
		AdaptDecay:   decay,
	}
}

func TestALIFValidate(t *testing.T) {
	bad := alifCfg(1, -0.1, 0.5)
	if err := bad.Validate(); err == nil {
		t.Error("negative AdaptStep validated")
	}
	bad = alifCfg(1, 0.1, 1.0)
	if err := bad.Validate(); err == nil {
		t.Error("AdaptDecay=1 validated")
	}
	bad = alifCfg(0, 0.1, 0.5)
	if err := bad.Validate(); err == nil {
		t.Error("Vth=0 validated")
	}
	good := alifCfg(1, 0.1, 0.5)
	if err := good.Validate(); err != nil {
		t.Errorf("valid adaptive config rejected: %v", err)
	}
}

// zeroALIFState returns the zero state for a population of the given
// shape.
func zeroALIFState(tp *autodiff.Tape, shape ...int) *ALIFState {
	return &ALIFState{V: tp.Zeros(shape...), ThExcess: tp.Zeros(shape...).Data}
}

func TestALIFThresholdRisesAfterSpike(t *testing.T) {
	cfg := alifCfg(1, 0.5, 0.8)
	tp := autodiff.NewTapeOn(nil)
	st := zeroALIFState(tp, 1)
	// Strong drive: first step spikes and raises the threshold.
	s1, st := ALIFStep(tp, cfg, tp.Const(tensor.FromSlice([]float64{1.2}, 1)), st)
	if s1.Data.Item() != 1 {
		t.Fatal("first step did not spike")
	}
	if math.Abs(st.ThExcess.At(0)-0.5) > 1e-12 {
		t.Fatalf("excess after spike = %v, want 0.5", st.ThExcess.At(0))
	}
	// Same drive again: effective threshold is now 1.5, so 1.2 is
	// subthreshold — adaptation suppressed the second spike.
	s2, st := ALIFStep(tp, cfg, tp.Const(tensor.FromSlice([]float64{1.2}, 1)), st)
	if s2.Data.Item() != 0 {
		t.Fatal("adapted neuron fired under the raised threshold")
	}
	// Excess decays: 0.5·0.8 = 0.4.
	if math.Abs(st.ThExcess.At(0)-0.4) > 1e-12 {
		t.Errorf("excess after decay = %v, want 0.4", st.ThExcess.At(0))
	}
}

func TestALIFZeroStepEquivalentToLIF(t *testing.T) {
	// With AdaptStep = 0 the adaptive neuron must reproduce LIFStep
	// exactly over a multi-step drive.
	cfg := alifCfg(0.8, 0, 0.5)
	r := tensor.NewRand(1, 2)
	drive := make([]*tensor.Tensor, 5)
	for i := range drive {
		drive[i] = tensor.RandN(r, 0.5, 0.5, 6)
	}

	tpA := autodiff.NewTapeOn(nil)
	stA := zeroALIFState(tpA, 6)
	var outA []*tensor.Tensor
	for _, d := range drive {
		var s *autodiff.Value
		s, stA = ALIFStep(tpA, cfg, tpA.Const(d), stA)
		outA = append(outA, s.Data)
	}

	tpB := autodiff.NewTapeOn(nil)
	vB := tpB.Const(tensor.New(6))
	var outB []*tensor.Tensor
	for _, d := range drive {
		var s *autodiff.Value
		s, vB = LIFStep(tpB, cfg.NeuronConfig, tpB.Const(d), vB)
		outB = append(outB, s.Data)
	}

	for i := range outA {
		if !outA[i].AllClose(outB[i], 0) {
			t.Fatalf("step %d: ALIF(step=0) %v != LIF %v", i, outA[i], outB[i])
		}
	}
}

func TestALIFReducesFiringUnderSustainedDrive(t *testing.T) {
	// Adaptation must lower the total spike count of a strongly driven
	// population compared to a non-adaptive one.
	base := alifCfg(0.5, 0, 0.9)
	adap := alifCfg(0.5, 0.3, 0.9)
	count := func(cfg AdaptiveConfig) float64 {
		tp := autodiff.NewTapeOn(nil)
		st := zeroALIFState(tp, 20)
		total := 0.0
		for i := 0; i < 10; i++ {
			var s *autodiff.Value
			s, st = ALIFStep(tp, cfg, tp.Const(tensor.Full(1.0, 20)), st)
			total += tensor.Sum(s.Data)
		}
		return total
	}
	if ca, cb := count(adap), count(base); ca >= cb {
		t.Errorf("adaptation did not reduce firing: adaptive %v vs base %v", ca, cb)
	}
}

func TestALIFGradientFlows(t *testing.T) {
	cfg := alifCfg(1, 0.2, 0.7)
	tp := autodiff.NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{0.9}, 1))
	st := zeroALIFState(tp, 1)
	var s1, s2 *autodiff.Value
	s1, st = ALIFStep(tp, cfg, x, st)
	s2, _ = ALIFStep(tp, cfg, x, st)
	backwardSum(tp, tp.Add(s1, s2))
	if x.Grad == nil || x.Grad.At(0) == 0 {
		t.Fatal("no gradient through the adaptive unroll")
	}
}

func TestALIFShapeMismatchPanics(t *testing.T) {
	tp := autodiff.NewTapeOn(nil)
	st := zeroALIFState(tp, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	ALIFStep(tp, alifCfg(1, 0.1, 0.5), tp.Const(tensor.New(2)), st)
}

func TestALIFSubtractReset(t *testing.T) {
	cfg := alifCfg(1, 0.2, 0.5)
	cfg.Reset = ResetSubtract
	tp := autodiff.NewTapeOn(nil)
	st := zeroALIFState(tp, 1)
	_, st = ALIFStep(tp, cfg, tp.Const(tensor.FromSlice([]float64{1.4}, 1)), st)
	// Subtracts the adapted threshold (here still the base 1.0).
	if math.Abs(st.V.Data.Item()-0.4) > 1e-12 {
		t.Errorf("membrane after subtract reset = %v, want 0.4", st.V.Data.Item())
	}
}
