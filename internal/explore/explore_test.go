package explore

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// tinyBuilder returns a builder for a minimal one-hidden-layer SNN so the
// grid sweep stays fast in tests.
func tinyBuilder(imageSize int) BuildSNN {
	return func(vth float64, T int) (*snn.Network, error) {
		r := tensor.NewRand(11, 0)
		cfg := snn.NeuronConfig{Vth: vth, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 10}}
		return &snn.Network{
			Encoder: snn.ConstantCurrentEncoder{Gain: 1},
			Hidden: []snn.Layer{
				{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, imageSize*imageSize, 32)), Cfg: cfg},
			},
			Readout:    nn.NewLinear(r, 32, 10),
			ReadoutCfg: cfg,
			Mode:       snn.ReadoutMembrane,
			T:          T,
			LogitScale: 10,
		}, nil
	}
}

func gridData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	mk := func(n int, seed uint64) *dataset.Dataset {
		cfg := dataset.DefaultSynthConfig(n, seed)
		cfg.Size = 12
		d, err := dataset.SynthDigits(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Normalize()
		return d
	}
	return mk(200, 1), mk(50, 2)
}

func fastConfig(imageSize int) Config {
	return Config{
		Vths:              []float64{0.5, 1e6}, // absurd threshold silences the network: deliberately unlearnable
		Ts:                []int{2, 6},
		Epsilons:          []float64{0.5, 1.5},
		AccuracyThreshold: 0.4,
		Train: train.Config{
			Epochs:    15,
			BatchSize: 20,
			GradClip:  5,
		},
		NewOptimizer: func() train.Optimizer { return train.NewAdam(1e-2) },
		AttackSteps:  3,
		EvalBatch:    32,
		Workers:      2,
		Build:        tinyBuilder(imageSize),
		Seed:         3,
	}
}

func TestRunGridShapeAndGate(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	res, err := Run(cfg, trainDS, testDS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for i := range res.Points {
		p := &res.Points[i]
		if p.Err != nil {
			t.Fatalf("point (%g, %d) failed: %v", p.Vth, p.T, p.Err)
		}
		if p.CleanAccuracy < 0 || p.CleanAccuracy > 1 {
			t.Errorf("accuracy %v out of range", p.CleanAccuracy)
		}
		if p.Learnable != (p.CleanAccuracy >= cfg.AccuracyThreshold) {
			t.Errorf("gate inconsistent at (%g, %d)", p.Vth, p.T)
		}
		if p.Learnable && len(p.Robustness) != 2 {
			t.Errorf("learnable point (%g, %d) has %d robustness entries", p.Vth, p.T, len(p.Robustness))
		}
		if !p.Learnable && p.Robustness != nil {
			t.Errorf("non-learnable point (%g, %d) was attacked", p.Vth, p.T)
		}
	}
	// Vth=8 with tiny T must be unlearnable — the silent-network corner
	// of Figure 6.
	// Vths {0.5, 1e6} × Ts {2, 6}, T-major.
	p := res.At(1, 0)
	if p.Learnable {
		t.Errorf("Vth=1e6 T=2 learnable with accuracy %v — silent corner not reproduced", p.CleanAccuracy)
	}
	// Vth=0.5 with the longer window should learn on this easy problem.
	p = res.At(0, 1)
	if !p.Learnable {
		t.Errorf("Vth=0.5 T=6 not learnable (accuracy %v) — sweep too weak to be meaningful", p.CleanAccuracy)
	}
}

func TestResultIndexing(t *testing.T) {
	res := &Result{
		Vths: []float64{0.5, 1},
		Ts:   []int{2, 4},
		Points: []Point{
			{Vth: 0.5, T: 2}, {Vth: 1, T: 2},
			{Vth: 0.5, T: 4}, {Vth: 1, T: 4},
		},
	}
	if p := res.At(1, 0); p.Vth != 1 || p.T != 2 {
		t.Errorf("At(1,0) = (%g, %d)", p.Vth, p.T)
	}
	if p := res.At(0, 1); p.Vth != 0.5 || p.T != 4 {
		t.Errorf("At(0,1) = (%g, %d)", p.Vth, p.T)
	}
}

func TestPointRobustAt(t *testing.T) {
	p := Point{Robustness: nil}
	if _, ok := p.RobustAt(1); ok {
		t.Error("RobustAt on empty point")
	}
}

func TestLearnableCount(t *testing.T) {
	res := &Result{Points: []Point{{Learnable: true}, {}, {Learnable: true}}}
	if res.LearnableCount() != 2 {
		t.Errorf("LearnableCount = %d", res.LearnableCount())
	}
}

func TestConfigValidation(t *testing.T) {
	trainDS, testDS := gridData(t)
	bad := fastConfig(12)
	bad.Vths = nil
	if _, err := Run(bad, trainDS, testDS); err == nil {
		t.Error("empty grid accepted")
	}
	bad = fastConfig(12)
	bad.Epsilons = nil
	if _, err := Run(bad, trainDS, testDS); err == nil {
		t.Error("no budgets accepted")
	}
	bad = fastConfig(12)
	bad.Build = nil
	if _, err := Run(bad, trainDS, testDS); err == nil {
		t.Error("nil builder accepted")
	}
	bad = fastConfig(12)
	bad.AccuracyThreshold = 2
	if _, err := Run(bad, trainDS, testDS); err == nil {
		t.Error("threshold 2 accepted")
	}
}

func TestBuilderErrorIsPerPoint(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	cfg.Vths = []float64{0.5}
	cfg.Ts = []int{2}
	builder := cfg.Build
	cfg.Build = func(vth float64, T int) (*snn.Network, error) {
		if vth == 0.5 {
			return nil, errBoom
		}
		return builder(vth, T)
	}
	res, err := Run(cfg, trainDS, testDS)
	if err != nil {
		t.Fatal(err)
	}
	p := res.At(0, 0)
	if p.Err == nil || !strings.Contains(p.Err.Error(), "boom") {
		t.Errorf("builder error not recorded: %v", p.Err)
	}
	if p.Learnable {
		t.Error("failed point marked learnable")
	}
}

var errBoom = errTest("boom")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestGridDeterminism(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	cfg.Vths = []float64{0.5}
	cfg.Ts = []int{4}
	cfg.Workers = 1
	run := func() float64 {
		res, err := Run(cfg, trainDS.Subset(0, trainDS.Len()), testDS)
		if err != nil {
			t.Fatal(err)
		}
		return res.At(0, 0).CleanAccuracy
	}
	a, b := run(), run()
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("two identical runs differ: %v vs %v", a, b)
	}
}

// TestTrainPointDeterminismAcrossWorkers pins the contract the
// distributed grid engine rests on: training grid point i in isolation —
// on any worker, with any backend width — produces bit-identical weights
// and results to the same point inside the full multi-worker Run,
// because every RNG stream under a point derives from (Seed, i) alone.
func TestTrainPointDeterminismAcrossWorkers(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	cfg.Vths = []float64{0.5, 0.75}
	cfg.Train.Epochs = 5
	// A shuffle generator exercises the per-point stream derivation (it
	// is replaced per point, never shared).
	cfg.Train.Shuffle = tensor.NewRand(99, 99)
	cfg.Workers = 2

	// Run keeps no networks; the builder hands out the ones it trains.
	type cell struct {
		vth float64
		t   int
	}
	var mu sync.Mutex
	nets := map[cell]*snn.Network{}
	sweepCfg := cfg
	sweepCfg.Build = func(vth float64, T int) (*snn.Network, error) {
		net, err := cfg.Build(vth, T)
		mu.Lock()
		nets[cell{vth, T}] = net
		mu.Unlock()
		return net, err
	}
	res, err := Run(sweepCfg, trainDS.Subset(0, trainDS.Len()), testDS)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range res.Points {
		lone, pt, err := RunPointAt(cfg, nil, idx, trainDS.Subset(0, trainDS.Len()), testDS)
		if err != nil {
			t.Fatal(err)
		}
		inSweep := &res.Points[idx]
		if lone.Err != nil || inSweep.Err != nil {
			t.Fatalf("point %d failed: %v / %v", idx, lone.Err, inSweep.Err)
		}
		if !reflect.DeepEqual(pt, *inSweep) {
			t.Errorf("point %d standalone %+v, in sweep %+v", idx, pt, *inSweep)
		}
		lp, sp := lone.Net.Params(), nets[cell{inSweep.Vth, inSweep.T}].Params()
		if len(lp) != len(sp) {
			t.Fatalf("point %d param count %d vs %d", idx, len(lp), len(sp))
		}
		for pi := range lp {
			a, b := lp[pi].Data.Data(), sp[pi].Data.Data()
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("point %d param %q[%d]: %v standalone vs %v in sweep — per-point RNG leaked shared state",
						idx, lp[pi].Name, j, a[j], b[j])
				}
			}
		}
	}
}

func TestRunPointAtMatchesRun(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	res, err := Run(cfg, trainDS.Subset(0, trainDS.Len()), testDS)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range res.Points {
		_, pt, err := RunPointAt(cfg, nil, idx, trainDS.Subset(0, trainDS.Len()), testDS)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Points[idx]
		if pt.CleanAccuracy != want.CleanAccuracy || pt.Learnable != want.Learnable {
			t.Errorf("point %d: standalone (%v, %v) vs sweep (%v, %v)",
				idx, pt.CleanAccuracy, pt.Learnable, want.CleanAccuracy, want.Learnable)
		}
		if len(pt.Robustness) != len(want.Robustness) {
			t.Fatalf("point %d robustness length %d vs %d", idx, len(pt.Robustness), len(want.Robustness))
		}
		for k := range pt.Robustness {
			if pt.Robustness[k] != want.Robustness[k] {
				t.Errorf("point %d eps %g: robust %v standalone vs %v in sweep",
					idx, pt.Robustness[k].Eps, pt.Robustness[k].RobustAccuracy, want.Robustness[k].RobustAccuracy)
			}
		}
	}
}

func TestValidateRejectsZeroAxes(t *testing.T) {
	trainDS, testDS := gridData(t)
	bad := fastConfig(12)
	bad.Vths = []float64{0, 1}
	if _, err := Run(bad, trainDS, testDS); err == nil {
		t.Error("zero Vth accepted")
	}
	bad = fastConfig(12)
	bad.Ts = []int{0, 2}
	if _, err := Run(bad, trainDS, testDS); err == nil {
		t.Error("zero T accepted")
	}
}

// TestValidateRefusesNonFiniteAndNegative: NaN passes a `<= 0` guard, the
// noise budgets were not checked at all, and a negative step count used
// to become the default. Zero stays legal for ε (the clean point) and for
// AttackSteps (the default).
func TestValidateRefusesNonFiniteAndNegative(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name  string
		edit  func(c *Config)
		field string
	}{
		{"NaN Vth", func(c *Config) { c.Vths = []float64{1, nan} }, "Vth"},
		{"+Inf Vth", func(c *Config) { c.Vths = []float64{inf} }, "Vth"},
		{"-Inf Vth", func(c *Config) { c.Vths = []float64{-inf} }, "Vth"},
		{"negative eps", func(c *Config) { c.Epsilons = []float64{0.5, -1} }, "Epsilons"},
		{"NaN eps", func(c *Config) { c.Epsilons = []float64{nan} }, "Epsilons"},
		{"+Inf eps", func(c *Config) { c.Epsilons = []float64{inf} }, "Epsilons"},
		{"negative steps", func(c *Config) { c.AttackSteps = -2 }, "AttackSteps"},
	} {
		cfg := fastConfig(12)
		c.edit(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.field)
		}
	}
	cfg := fastConfig(12)
	cfg.Epsilons, cfg.AttackSteps = []float64{0, 1}, 0
	if err := cfg.Validate(); err != nil || cfg.AttackSteps != 10 {
		t.Errorf("eps 0 and default steps: error %v, AttackSteps %d", err, cfg.AttackSteps)
	}
}

func TestPartialResultBookkeeping(t *testing.T) {
	res := NewPartialResult([]float64{0.5, 1}, []int{2}, []float64{1})
	if got := res.MissingIndices(); len(got) != 2 {
		t.Fatalf("fresh partial result missing %v, want 2 indices", got)
	}
	res.Set(1, Point{Vth: 1, T: 2, CleanAccuracy: 0.9})
	if !res.Computed(1) || res.Computed(0) {
		t.Error("Computed flags wrong after Set")
	}
	if got := res.MissingIndices(); len(got) != 1 || got[0] != 0 {
		t.Errorf("MissingIndices = %v, want [0]", got)
	}
}
