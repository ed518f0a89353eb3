package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"snnsec/internal/attack"
	"snnsec/internal/autodiff"
	"snnsec/internal/dataset"
	"snnsec/internal/explore"
	"snnsec/internal/grid"
	"snnsec/internal/modelio"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// testScale is a drastically reduced preset so core's end-to-end tests
// stay in seconds; the benchmark harness uses BenchScale for the real
// figures.
func testScale() Scale {
	s := BenchScale()
	s.Data = DataConfig{TrainN: 100, TestN: 30, ImageSize: 16, Seed: 1}
	s.Epochs = 2
	s.DefaultT = 4
	s.Vths = []float64{0.5, 1e6}
	s.Ts = []int{2, 4}
	s.HeatmapEpsilons = []float64{1.0}
	s.CurveEpsilons = []float64{0, 1.0}
	s.AttackSteps = 2
	return s
}

func TestNewLeNet5CNNShapes(t *testing.T) {
	cnn, err := NewLeNet5CNN(DefaultLeNetConfig(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	tp := autodiff.NewTapeOn(nil)
	r := tensor.NewRand(2, 0)
	x := tp.Const(tensor.RandN(r, 0, 1, 3, 1, 16, 16))
	y := cnn.Logits(tp, x)
	if !y.Data.ShapeEquals(3, NumClasses) {
		t.Errorf("CNN logits shape = %v", y.Data.Shape())
	}
}

func TestNewLeNet5CNNPaperScaleShapes(t *testing.T) {
	cnn, err := NewLeNet5CNN(FullLeNetConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tp := autodiff.NewTapeOn(nil)
	r := tensor.NewRand(2, 0)
	x := tp.Const(tensor.RandN(r, 0, 1, 1, 1, 28, 28))
	y := cnn.Logits(tp, x)
	if !y.Data.ShapeEquals(1, NumClasses) {
		t.Errorf("paper-scale CNN logits shape = %v", y.Data.Shape())
	}
}

func TestBadImageSizeRejected(t *testing.T) {
	cfg := DefaultLeNetConfig(18, 1) // not divisible by 4
	if _, err := NewLeNet5CNN(cfg); err == nil {
		t.Error("image size 18 accepted for CNN")
	}
	if _, err := NewSpikingLeNet5(cfg, 1, 4); err == nil {
		t.Error("image size 18 accepted for SNN")
	}
}

func TestSpikingLeNetValidation(t *testing.T) {
	cfg := DefaultLeNetConfig(16, 1)
	if _, err := NewSpikingLeNet5(cfg, 0, 4); err == nil {
		t.Error("Vth=0 accepted")
	}
	if _, err := NewSpikingLeNet5(cfg, 1, 0); err == nil {
		t.Error("T=0 accepted")
	}
	// NaN passes a `<= 0` guard; a NaN threshold builds a silent network.
	for _, vth := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := NewSpikingLeNet5(cfg, vth, 4); err == nil || !strings.Contains(err.Error(), "Vth") {
			t.Errorf("Vth %g: error %v, want one naming Vth", vth, err)
		}
	}
}

func TestArchitectureMatched(t *testing.T) {
	// The paper stresses CNN and SNN have "the same number of layers with
	// equal size and equal number of neurons": the trainable parameter
	// count must match exactly.
	cfg := DefaultLeNetConfig(16, 1)
	cnn, err := NewLeNet5CNN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewSpikingLeNet5(cfg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cnnCount, snnCount := 0, 0
	for _, p := range cnn.Params() {
		cnnCount += p.Data.Len()
	}
	for _, p := range net.Params() {
		snnCount += p.Data.Len()
	}
	if cnnCount != snnCount {
		t.Errorf("parameter counts differ: CNN %d vs SNN %d", cnnCount, snnCount)
	}
}

func TestSpikingLeNetForwardShape(t *testing.T) {
	net, err := NewSpikingLeNet5(DefaultLeNetConfig(16, 1), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	tp := autodiff.NewTapeOn(nil)
	r := tensor.NewRand(3, 0)
	x := tp.Const(tensor.RandN(r, 0.5, 0.5, 2, 1, 16, 16))
	y := net.Logits(tp, x)
	if !y.Data.ShapeEquals(2, NumClasses) {
		t.Errorf("SNN logits shape = %v", y.Data.Shape())
	}
}

// TestSpikingLeNet5PaperConstants pins what NewSpikingLeNet5 fixes
// besides (Vth, T): leak α = 0.9 and the FastSigmoid β = 25 surrogate on
// every population, the normalised Poisson rate encoder, the spike-count
// readout and a logit scale of 10.
func TestSpikingLeNet5PaperConstants(t *testing.T) {
	net, err := NewSpikingLeNet5(DefaultLeNetConfig(16, 1), 1.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := snn.NeuronConfig{Vth: 1.5, Alpha: 0.9, Surrogate: snn.FastSigmoid{Beta: 25}}
	for i, l := range net.Hidden {
		if l.Cfg != want {
			t.Errorf("hidden population %d: %+v, want %+v", i, l.Cfg, want)
		}
	}
	if net.ReadoutCfg != want {
		t.Errorf("readout population: %+v, want %+v", net.ReadoutCfg, want)
	}
	if enc, ok := net.Encoder.(*snn.PoissonEncoder); !ok {
		t.Errorf("encoder %T, want *snn.PoissonEncoder", net.Encoder)
	} else if enc.Gain != 1 || enc.Scale != dataset.MNISTStd || enc.Offset != dataset.MNISTMean {
		t.Errorf("Poisson encoder gain %g scale %g offset %g; want 1 and the MNIST std and mean", enc.Gain, enc.Scale, enc.Offset)
	}
	if net.LogitScale != 10 || net.T != 4 {
		t.Errorf("LogitScale %g, T %d; want 10, 4", net.LogitScale, net.T)
	}
	if err := net.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLoadDataSynth(t *testing.T) {
	tr, te, err := LoadData(DataConfig{TrainN: 50, TestN: 20, ImageSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 || te.Len() != 20 {
		t.Errorf("split sizes %d/%d", tr.Len(), te.Len())
	}
	if !tr.Normalized || !te.Normalized {
		t.Error("data not normalised")
	}
	// Train and test must differ (different seeds).
	if tr.X.Slice(0).AllClose(te.X.Slice(0), 1e-9) {
		t.Error("train and test look identical")
	}
}

func TestLoadDataMNISTDir(t *testing.T) {
	dir := t.TempDir()
	mk := func(n int, seed uint64) *dataset.Dataset {
		cfg := dataset.DefaultSynthConfig(n, seed)
		d, err := dataset.SynthDigits(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if err := dataset.WriteIDX(mk(40, 1),
		filepath.Join(dir, "train-images-idx3-ubyte"),
		filepath.Join(dir, "train-labels-idx1-ubyte")); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteIDX(mk(20, 2),
		filepath.Join(dir, "t10k-images-idx3-ubyte"),
		filepath.Join(dir, "t10k-labels-idx1-ubyte")); err != nil {
		t.Fatal(err)
	}
	t.Setenv(dataset.MNISTDirEnv, dir)
	tr, te, err := LoadData(DataConfig{TrainN: 30, TestN: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 30 || te.Len() != 10 {
		t.Errorf("MNIST-dir subsampling gave %d/%d", tr.Len(), te.Len())
	}
}

func TestScalePresets(t *testing.T) {
	b := BenchScale()
	p := PaperScale()
	if b.Name != "bench" || p.Name != "paper" {
		t.Error("preset names")
	}
	if p.DefaultT != 64 || p.Data.ImageSize != 28 {
		t.Error("paper preset does not match the paper's defaults")
	}
	if len(p.Vths) < 8 || len(p.Ts) < 8 {
		t.Error("paper grid smaller than the paper's 8x8+")
	}
	os.Unsetenv(ScaleEnv)
	if ScaleFromEnv().Name != "bench" {
		t.Error("default scale is not bench")
	}
	t.Setenv(ScaleEnv, "paper")
	if ScaleFromEnv().Name != "paper" {
		t.Error("SNNSEC_SCALE=paper ignored")
	}
}

func TestRunFig1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment in -short mode")
	}
	s := testScale()
	var log bytes.Buffer
	res, err := RunFig1(s, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CNN) != len(s.CurveEpsilons) || len(res.SNN) != len(s.CurveEpsilons) {
		t.Fatalf("curve lengths %d/%d", len(res.CNN), len(res.SNN))
	}
	if res.CNN[0].RobustAccuracy != res.CNNClean {
		t.Error("ε=0 point does not equal clean accuracy")
	}
	if res.CNNClean < 0.3 {
		t.Errorf("CNN failed to learn at test scale: %v", res.CNNClean)
	}
	if !bytes.Contains(log.Bytes(), []byte("fig1")) {
		t.Error("no log output")
	}
}

func TestRunGridSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment in -short mode")
	}
	s := testScale()
	spec, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := grid.Run(context.Background(), BuildGridJob, spec, grid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("grid points = %d", len(res.Points))
	}
	// The absurd-threshold column (Vths {0.5, 1e6}) must fail the gate.
	for ti, T := range s.Ts {
		if p := res.At(1, ti); p.Learnable {
			t.Errorf("Vth=1e6 T=%d passed the 70%% gate with %v", T, p.CleanAccuracy)
		}
	}
}

func TestSelectFig9Combos(t *testing.T) {
	res := &explore.Result{
		Vths:     []float64{0.5, 1, 2},
		Ts:       []int{8},
		Epsilons: []float64{1.5},
		Points: []explore.Point{
			{Vth: 0.5, T: 8, CleanAccuracy: 0.9, Learnable: true,
				Robustness: []attack.CurvePoint{{Eps: 1.5, RobustAccuracy: 0.8}}},
			{Vth: 1, T: 8, CleanAccuracy: 0.85, Learnable: true,
				Robustness: []attack.CurvePoint{{Eps: 1.5, RobustAccuracy: 0.1}}},
			{Vth: 2, T: 8, CleanAccuracy: 0.8, Learnable: true,
				Robustness: []attack.CurvePoint{{Eps: 1.5, RobustAccuracy: 0.45}}},
		},
	}
	combos := SelectFig9Combos(res)
	if len(combos) != 3 {
		t.Fatalf("combos = %d", len(combos))
	}
	if combos[0].Vth != 0.5 { // best
		t.Errorf("best combo = %+v", combos[0])
	}
	if combos[1].Vth != 1 { // worst
		t.Errorf("worst combo = %+v", combos[1])
	}
	if combos[2].Vth != 2 { // medium
		t.Errorf("medium combo = %+v", combos[2])
	}
}

func TestSelectFig9CombosEmpty(t *testing.T) {
	res := &explore.Result{Epsilons: []float64{1}, Points: []explore.Point{{CleanAccuracy: 0.1}}}
	if got := SelectFig9Combos(res); got != nil {
		t.Errorf("combos from unlearnable grid: %v", got)
	}
	if got := SelectFig9Combos(&explore.Result{}); got != nil {
		t.Errorf("combos with no epsilons: %v", got)
	}
}

func TestFig1CrossoverDetection(t *testing.T) {
	r := &Fig1Result{
		CNN: []attack.CurvePoint{{Eps: 0, RobustAccuracy: 0.9}, {Eps: 0.5, RobustAccuracy: 0.2}},
		SNN: []attack.CurvePoint{{Eps: 0, RobustAccuracy: 0.8}, {Eps: 0.5, RobustAccuracy: 0.5}},
	}
	e, ok := r.Crossover()
	if !ok || e != 0.5 {
		t.Errorf("crossover = %v, %v", e, ok)
	}
	r.SNN[1].RobustAccuracy = 0.1
	if _, ok := r.Crossover(); ok {
		t.Error("phantom crossover")
	}
}

func TestFig9MaxGap(t *testing.T) {
	r := &Fig9Result{
		CNN: []attack.CurvePoint{{Eps: 0, RobustAccuracy: 0.9}, {Eps: 1, RobustAccuracy: 0.1}},
		Combos: []Fig9Combo{
			{Vth: 1, T: 8, Curve: []attack.CurvePoint{{Eps: 0, RobustAccuracy: 0.85}, {Eps: 1, RobustAccuracy: 0.75}}},
		},
	}
	if gap := r.MaxGapOverCNN(); gap != 0.65 {
		t.Errorf("MaxGapOverCNN = %v, want 0.65", gap)
	}
}

func TestCheckpointRoundTripPreservesLogits(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment in -short mode")
	}
	s := testScale()
	trainDS, testDS, err := LoadData(s.Data)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := s.TrainSNN(0.5, 3, trainDS, testDS)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snn.ckpt")
	if err := modelio.SaveFile(path, map[string]string{"model": "snn"}, net.Params()); err != nil {
		t.Fatal(err)
	}
	m, err := modelio.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewSpikingLeNet5(s.Net, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(rebuilt.Params()); err != nil {
		t.Fatal(err)
	}
	// Identical weights + identical encoder seed streams give identical
	// predictions batch-by-batch only if the Poisson streams align; use
	// the deterministic constant-current encoder for the check.
	net.Encoder = snn.ConstantCurrentEncoder{Gain: 1}
	rebuilt.Encoder = snn.ConstantCurrentEncoder{Gain: 1}
	b := testDS.Batches(16)[0]
	tp1 := autodiff.NewTapeOn(nil)
	l1 := net.Logits(tp1, tp1.Const(b.X))
	tp2 := autodiff.NewTapeOn(nil)
	l2 := rebuilt.Logits(tp2, tp2.Const(b.X))
	if !l1.Data.AllClose(l2.Data, 0) {
		t.Error("rebuilt checkpoint produces different logits")
	}
}

// TestPointLookup pins the one (Vth, T) → (config, index) lookup: a point
// on the scale's grid is its T-major cell of GridConfig, anything else a
// 1×1 grid of its own, and every preset's default and canonical Fig. 9
// points are grid cells.
func TestPointLookup(t *testing.T) {
	s := BenchScale()
	cfg, idx := s.Point(1.5, 8)
	if idx != 1*len(s.Vths)+2 || len(cfg.Vths) != len(s.Vths) || len(cfg.Ts) != len(s.Ts) {
		t.Errorf("on-grid (1.5, 8): index %d of a %d×%d grid", idx, len(cfg.Vths), len(cfg.Ts))
	}
	cfg, idx = s.Point(0.7, 5)
	if idx != 0 || !slices.Equal(cfg.Vths, []float64{0.7}) || !slices.Equal(cfg.Ts, []int{5}) {
		t.Errorf("off-grid (0.7, 5): index %d of %v × %v", idx, cfg.Vths, cfg.Ts)
	}
	for _, p := range []Scale{TinyScale(), BenchScale(), PaperScale()} {
		for _, c := range []struct {
			vth float64
			T   int
		}{
			{p.DefaultVth, p.DefaultT},
			{p.DefaultVth, p.Ts[len(p.Ts)-1]},
			{p.Vths[len(p.Vths)-1], p.Ts[len(p.Ts)/2]},
			{p.DefaultVth, p.Ts[0]},
		} {
			if cfg, _ := p.Point(c.vth, c.T); len(cfg.Vths) != len(p.Vths) {
				t.Errorf("%s: (%g, %d) is not on the grid", p.Name, c.vth, c.T)
			}
		}
	}
}

// tinyCell returns TinyScale, its data and the T-major grid index of its
// default point.
func tinyCell(t *testing.T) (Scale, *dataset.Dataset, *dataset.Dataset, int) {
	t.Helper()
	s := TinyScale()
	trainDS, testDS, err := LoadData(s.Data)
	if err != nil {
		t.Fatal(err)
	}
	vi, ti := slices.Index(s.Vths, s.DefaultVth), slices.Index(s.Ts, s.DefaultT)
	if vi < 0 || ti < 0 {
		t.Fatalf("default point (%g, %d) is off the tiny grid", s.DefaultVth, s.DefaultT)
	}
	return s, trainDS, testDS, ti*len(s.Vths) + vi
}

func sameWeights(t *testing.T, what string, a, b *snn.Network) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j, v := range ap[i].Data.Data() {
			if w := bp[i].Data.Data()[j]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: %s[%d] = %v vs %v", what, ap[i].Name, j, v, w)
			}
		}
	}
}

// TestTrainSNNIsTheGridCell pins that TrainSNN trains the network the grid
// trains at that point: same weights to the bit, same clean accuracy.
func TestTrainSNNIsTheGridCell(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment in -short mode")
	}
	s, trainDS, testDS, idx := tinyCell(t)
	net, acc, err := s.TrainSNN(s.DefaultVth, s.DefaultT, trainDS, testDS)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := explore.TrainPointAt(s.GridConfig(), nil, idx, trainDS, testDS)
	if err != nil || tp.Err != nil {
		t.Fatal(err, tp.Err)
	}
	sameWeights(t, "TrainSNN vs grid cell", net, tp.Net)
	if acc != tp.CleanAccuracy {
		t.Errorf("clean accuracy %v, grid cell %v", acc, tp.CleanAccuracy)
	}
}

// TestTrainSNNIgnoresEarlierTraining pins that training reads its data
// and writes nothing: an SNN trained after the CNN on the same dataset
// object is the SNN trained alone.
func TestTrainSNNIgnoresEarlierTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment in -short mode")
	}
	s, trainDS, testDS, _ := tinyCell(t)
	alone, _, err := s.TrainSNN(s.DefaultVth, s.DefaultT, trainDS, testDS)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TrainCNN(trainDS, testDS); err != nil {
		t.Fatal(err)
	}
	after, _, err := s.TrainSNN(s.DefaultVth, s.DefaultT, trainDS, testDS)
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "SNN alone vs after the CNN", alone, after)
}

// TestFig1SNNCurveIsTheGridCell pins that Figure 1's SNN curve reads, at
// every heat-map budget, the robust accuracy of the grid cell at the
// default point. The tiny preset's networks do not learn, so this runs a
// reduced bench preset whose default point is the second cell of a
// two-cell grid, with heat-map budgets that are not the curve's first;
// the gate is lowered so the cell is attacked.
func TestFig1SNNCurveIsTheGridCell(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment in -short mode")
	}
	s := BenchScale()
	s.Data = DataConfig{TrainN: 400, TestN: 40, ImageSize: 16, Seed: 1}
	s.Epochs = 4
	s.DefaultT = 8
	s.Vths = []float64{0.5, 1}
	s.Ts = []int{8}
	s.HeatmapEpsilons = []float64{1.0, 0.5}
	s.CurveEpsilons = []float64{0, 0.25, 0.5, 1.0}
	s.AttackSteps = 3
	trainDS, testDS, err := LoadData(s.Data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.GridConfig()
	cfg.AccuracyThreshold = 1e-9
	_, cell, err := explore.RunPointAt(cfg, nil, 1, trainDS, testDS)
	if err != nil || cell.Err != nil {
		t.Fatal(err, cell.Err)
	}
	res, err := RunFig1(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SNNClean != cell.CleanAccuracy {
		t.Errorf("Fig. 1 SNN clean %v, grid cell %v", res.SNNClean, cell.CleanAccuracy)
	}
	for _, eps := range s.HeatmapEpsilons {
		want, ok := cell.RobustAt(eps)
		if !ok {
			t.Fatalf("grid cell has no reading at eps %g", eps)
		}
		i := slices.IndexFunc(res.SNN, func(p attack.CurvePoint) bool { return p.Eps == eps })
		if i < 0 {
			t.Fatalf("Fig. 1 SNN curve has no reading at eps %g", eps)
		}
		if got := res.SNN[i].RobustAccuracy; got != want {
			t.Errorf("eps %g: Fig. 1 SNN %v, grid cell %v", eps, got, want)
		}
	}
}
