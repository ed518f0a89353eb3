// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figures 1, 6, 7, 8, 9), plus the Algorithm-1 end-to-end run, the
// design-choice ablations called out in DESIGN.md, and micro-benchmarks
// of the computational substrate.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark executes the real experiment at the bench scale
// (see internal/core.BenchScale) and prints the regenerated table — the
// textual equivalent of the paper's plot — to stdout. Expensive shared
// setup (the trained (Vth, T) grid used by Figures 7, 8 and 9) runs once
// per process outside the timed region.
package snnsec

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"snnsec/internal/attack"
	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/dataset"
	"snnsec/internal/explore"
	"snnsec/internal/nn"
	"snnsec/internal/report"
	"snnsec/internal/serve"
	"snnsec/internal/snn"
	"snnsec/internal/stream"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// ---------------------------------------------------------------------------
// Shared fixtures

var (
	sweepOnce sync.Once
	sweepVal  *explore.Sweep
	sweepTest *dataset.Dataset
	sweepErr  error
)

// sharedSweep trains the (Vth, T) grid once per process; Figures 7, 8 and
// 9 reuse it so the benchmark suite does not retrain the same 12 networks
// three times.
func sharedSweep(b *testing.B) (*explore.Sweep, *dataset.Dataset) {
	b.Helper()
	sweepOnce.Do(func() {
		s := core.ScaleFromEnv()
		trainDS, testDS, err := core.LoadData(s.Data)
		if err != nil {
			sweepErr = err
			return
		}
		sweepTest = testDS
		sweepVal, sweepErr = explore.TrainGrid(gridConfig(s), trainDS, testDS)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepVal, sweepTest
}

func gridConfig(s core.Scale) explore.Config {
	return explore.Config{
		Vths:              s.Vths,
		Ts:                s.Ts,
		Epsilons:          s.HeatmapEpsilons,
		AccuracyThreshold: 0.70,
		Train: train.Config{
			Epochs:    s.Epochs,
			BatchSize: s.BatchSize,
			GradClip:  s.GradClip,
			Shuffle:   tensor.NewRand(s.Seed, 0x5f),
		},
		NewOptimizer: func() train.Optimizer { return train.NewAdam(s.LR) },
		AttackSteps:  s.AttackSteps,
		EvalBatch:    s.EvalBatch,
		Workers:      s.Workers,
		Seed:         s.Seed,
		Build: func(vth float64, T int) (*snn.Network, error) {
			return core.NewSpikingLeNet5(s.Net, vth, T, core.SNNOptions{})
		},
	}
}

// ---------------------------------------------------------------------------
// Figure 1 — motivational case study (CNN vs SNN under PGD)

func BenchmarkFig1MotivationalStudy(b *testing.B) {
	s := core.ScaleFromEnv()
	var res *core.Fig1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunFig1(s, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	report.WriteCurves(os.Stdout, "\nFigure 1 — PGD on CNN vs SNN (default structural parameters)", []report.Series{
		{Name: "CNN", Points: res.CNN},
		{Name: fmt.Sprintf("SNN(%g,%d)", s.DefaultVth, s.DefaultT), Points: res.SNN},
	})
	if eps, ok := res.Crossover(); ok {
		fmt.Printf("turnaround point: eps = %g (paper: 0.5)\n", eps)
		b.ReportMetric(eps, "crossover_eps")
	} else {
		fmt.Println("no crossover observed")
	}
	b.ReportMetric(res.CNNClean, "cnn_clean_acc")
	b.ReportMetric(res.SNNClean, "snn_clean_acc")
}

// ---------------------------------------------------------------------------
// Figure 6 — learnability heat map (trains the full grid)

func BenchmarkFig6LearnabilityHeatmap(b *testing.B) {
	s := core.ScaleFromEnv()
	trainDS, testDS, err := core.LoadData(s.Data)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gridConfig(s)
	var sw *explore.Sweep
	for i := 0; i < b.N; i++ {
		sw, err = explore.TrainGrid(cfg, trainDS, testDS)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Publish for the dependent figure benchmarks.
	sweepOnce.Do(func() { sweepVal, sweepTest = sw, testDS })
	res := sw.AttackAll(testDS, nil)
	fmt.Println()
	report.AccuracyGrid(res).WriteASCII(os.Stdout)
	learnable := 0
	for i := range sw.Points {
		if sw.Points[i].Learnable {
			learnable++
		}
	}
	fmt.Printf("learnable points: %d/%d (Ath = 0.70)\n", learnable, len(sw.Points))
	b.ReportMetric(float64(learnable), "learnable_points")
}

// ---------------------------------------------------------------------------
// Figures 7 and 8 — robustness heat maps at ε = 1.0 and ε = 1.5

func robustnessHeatmapBench(b *testing.B, eps float64) {
	sw, testDS := sharedSweep(b)
	b.ResetTimer()
	var res *explore.Result
	for i := 0; i < b.N; i++ {
		res = sw.AttackAll(testDS, []float64{eps})
	}
	b.StopTimer()
	fmt.Println()
	report.RobustnessGrid(res, eps).WriteASCII(os.Stdout)
	// Spread between the most and least robust learnable point — the
	// paper's "high clean accuracy is no guarantee of robustness".
	lo, hi := 1.0, 0.0
	for i := range res.Points {
		if v, ok := res.Points[i].RobustAt(eps); ok {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi >= lo {
		fmt.Printf("robustness spread across learnable grid at eps=%g: %.3f .. %.3f\n", eps, lo, hi)
		b.ReportMetric(hi-lo, "robustness_spread")
	}
}

func BenchmarkFig7RobustnessHeatmapEps1(b *testing.B)  { robustnessHeatmapBench(b, 1.0) }
func BenchmarkFig8RobustnessHeatmapEps15(b *testing.B) { robustnessHeatmapBench(b, 1.5) }

// ---------------------------------------------------------------------------
// Figure 9 — tracked (Vth, T) combinations vs the CNN

func BenchmarkFig9RobustnessCurves(b *testing.B) {
	s := core.ScaleFromEnv()
	sw, testDS := sharedSweep(b)
	full := sw.AttackAll(testDS, s.HeatmapEpsilons)
	combos := core.SelectFig9Combos(full)
	b.ResetTimer()
	var res *core.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunFig9(s, combos, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	series := []report.Series{{Name: "CNN", Points: res.CNN}}
	for _, c := range res.Combos {
		series = append(series, report.Series{Name: fmt.Sprintf("SNN(%g,%d)", c.Vth, c.T), Points: c.Curve})
	}
	fmt.Println()
	report.WriteCurves(os.Stdout, "Figure 9 — tracked (Vth, T) combinations vs CNN under PGD", series)
	gap := res.MaxGapOverCNN()
	fmt.Printf("max robustness gap over CNN: %.3f (paper: up to 0.85)\n", gap)
	b.ReportMetric(gap, "max_gap_over_cnn")
}

// ---------------------------------------------------------------------------
// Algorithm 1 — end-to-end exploration on a reduced grid

func BenchmarkAlgorithm1Exploration(b *testing.B) {
	// A 2×2 grid keeps this end-to-end (train + gate + attack) benchmark
	// affordable; the full preset is covered by the Figure 6-8 pipeline.
	s := core.ScaleFromEnv()
	s.Vths = s.Vths[:2]
	s.Ts = s.Ts[:2]
	trainDS, testDS, err := core.LoadData(s.Data)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gridConfig(s)
	var res *explore.Result
	for i := 0; i < b.N; i++ {
		res, err = explore.Run(cfg, trainDS, testDS)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.LearnableCount()), "learnable_points")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md): encoder, surrogate, reset mode, leak factor.
// Each trains the same small spiking network with one knob changed and
// reports clean and robust accuracy at ε = 1.0.

type ablationVariant struct {
	name string
	opts core.SNNOptions
}

func runAblation(b *testing.B, title string, variants []ablationVariant) {
	s := core.ScaleFromEnv()
	s.Data.TestN = 50
	trainDS, testDS, err := core.LoadData(s.Data)
	if err != nil {
		b.Fatal(err)
	}
	const (
		vth = 1.0
		T   = 8
		eps = 1.0
	)
	bounds := attack.DatasetBounds(testDS)
	type row struct {
		name          string
		clean, robust float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, v := range variants {
			net, err := core.NewSpikingLeNet5(s.Net, vth, T, v.opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := train.Fit(net, trainDS, train.Config{
				Epochs: s.Epochs, BatchSize: s.BatchSize,
				Optimizer: train.NewAdam(s.LR), GradClip: s.GradClip,
			}); err != nil {
				b.Fatal(err)
			}
			ev := attack.Evaluate(net, testDS, attack.PGD{
				Eps: eps, Steps: s.AttackSteps, RandomStart: true,
				Rand: tensor.NewRand(s.Seed, 0xab1a), Bounds: bounds,
			}, s.EvalBatch)
			rows = append(rows, row{v.name, ev.CleanAccuracy, ev.RobustAccuracy})
		}
	}
	fmt.Printf("\n%s (Vth=%g, T=%d, PGD eps=%g)\n", title, vth, T, eps)
	fmt.Printf("%-28s %8s %8s\n", "variant", "clean", "robust")
	for _, r := range rows {
		fmt.Printf("%-28s %8.3f %8.3f\n", r.name, r.clean, r.robust)
	}
}

func BenchmarkAblationEncoder(b *testing.B) {
	runAblation(b, "Encoder ablation", []ablationVariant{
		{"poisson-rate (paper)", core.SNNOptions{}},
		{"constant-current", core.SNNOptions{Encoder: snn.ConstantCurrentEncoder{Gain: 1}}},
		{"latency", core.SNNOptions{Encoder: snn.LatencyEncoder{Gain: 1, T: 8}}},
	})
}

func BenchmarkAblationSurrogate(b *testing.B) {
	runAblation(b, "Surrogate-gradient ablation", []ablationVariant{
		{"fast-sigmoid beta=25", core.SNNOptions{Surrogate: snn.FastSigmoid{Beta: 25}}},
		{"fast-sigmoid beta=100", core.SNNOptions{Surrogate: snn.FastSigmoid{Beta: 100}}},
		{"sigmoid-prime beta=5", core.SNNOptions{Surrogate: snn.SigmoidPrime{Beta: 5}}},
		{"piecewise-linear w=0.5", core.SNNOptions{Surrogate: snn.PiecewiseLinear{Width: 0.5}}},
	})
}

func BenchmarkAblationReset(b *testing.B) {
	runAblation(b, "Reset-mode ablation", []ablationVariant{
		{"reset-to-zero (paper)", core.SNNOptions{Reset: snn.ResetZero}},
		{"reset-by-subtraction", core.SNNOptions{Reset: snn.ResetSubtract}},
	})
}

func BenchmarkAblationLeak(b *testing.B) {
	runAblation(b, "Leak-factor ablation (Sharmin et al. [36])", []ablationVariant{
		{"alpha=0.7 (strong leak)", core.SNNOptions{Alpha: 0.7}},
		{"alpha=0.9 (default)", core.SNNOptions{Alpha: 0.9}},
		{"alpha=1.0 (IF, no leak)", core.SNNOptions{Alpha: 1.0}},
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrate

func BenchmarkConv2DForward16(b *testing.B) {
	r := tensor.NewRand(1, 1)
	x := tensor.RandN(r, 0, 1, 32, 1, 16, 16)
	w := tensor.RandN(r, 0, 1, 6, 1, 5, 5)
	bias := tensor.RandN(r, 0, 1, 6)
	p := tensor.ConvParams{Stride: 1, Padding: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2D(x, w, bias, p)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := tensor.NewRand(2, 2)
	x := tensor.RandN(r, 0, 1, 128, 128)
	y := tensor.RandN(r, 0, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// benchLIFStep times one LIF step over a population of the given shape
// on the serial backend: a constant step (no surrogate plane, no
// pullback) or, with bptt, a gradient-tracking step plus its pullback
// seeded on the spike plane — the two loops of snn/lif.go, the first of
// which has an AVX kernel standing in for it. The parents are leaves
// with a reused gradient buffer, so what is timed besides the two loops
// is the seed copy and one add per product.
func benchLIFStep(b *testing.B, bptt bool, shape ...int) {
	r := tensor.NewRand(3, 3)
	cfg := snn.DefaultNeuronConfig()
	cur := tensor.RandN(r, 0.5, 0.5, shape...)
	mem := tensor.RandN(r, 0, 0.3, shape...)
	seed := tensor.RandN(r, 0, 1, shape...)
	dCur, dMem := tensor.New(shape...), tensor.New(shape...)
	tp := autodiff.NewTapeOn(compute.NewSerial())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bptt {
			s, _ := snn.LIFStep(tp, cfg, tp.Leaf(cur, dCur), tp.Leaf(mem, dMem))
			tp.BackwardWithSeed(s, seed)
		} else {
			snn.LIFStep(tp, cfg, tp.Const(cur), tp.Const(mem))
		}
		tp.Release()
	}
}

func BenchmarkLIFStep(b *testing.B)          { benchLIFStep(b, false, 32, 256) }
func BenchmarkLIFStepConvPlane(b *testing.B) { benchLIFStep(b, false, 32, 6, 16, 16) }
func BenchmarkLIFStepBPTT(b *testing.B)      { benchLIFStep(b, true, 32, 256) }
func BenchmarkLIFStepBPTTConvPlane(b *testing.B) {
	benchLIFStep(b, true, 32, 6, 16, 16)
}

// benchConvInputGradient times the input gradient alone — the Wᵀ·G
// product and the col2im scatter, no column expansion, no weight
// gradient — which is what a conv layer costs an input-gradient attack.
func benchConvInputGradient(b *testing.B, c, hw, f, k int) {
	r := tensor.NewRand(14, 14)
	p := tensor.ConvParams{Stride: 1, Padding: k / 2}
	x := tensor.RandN(r, 0, 1, 32, c, hw, hw)
	w := tensor.RandN(r, 0, 0.2, f, c, k, k)
	gout := tensor.RandN(r, 0, 1, 32, f, hw, hw)
	dx := tensor.New(32, c, hw, hw)
	be := compute.NewSerial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DGradsInto(be, dx, nil, nil, x, w, gout, p)
	}
}

// The two conv layers of the bench-scale LeNet at batch 32.
func BenchmarkConvInputGradientC1(b *testing.B) { benchConvInputGradient(b, 1, 16, 6, 5) }
func BenchmarkConvInputGradientC2(b *testing.B) { benchConvInputGradient(b, 6, 8, 12, 3) }

// benchConvWeightGradient times the weight and bias gradients alone — no
// input gradient — which is what a conv layer adds to a training step
// beyond the input side, serial backend. The input is a binary plane at
// the given density, or with density < 0 a dense one (layer 2 reads
// pooled averages).
func benchConvWeightGradient(b *testing.B, n, c, hw, f, k int, density float64) {
	r := tensor.NewRand(15, 15)
	p := tensor.ConvParams{Stride: 1, Padding: k / 2}
	x := tensor.RandU(r, 0, 1, n, c, hw, hw)
	if density >= 0 {
		x = tensor.Apply(x, func(v float64) float64 {
			if v < density {
				return 1
			}
			return 0
		})
	}
	w := tensor.RandN(r, 0, 0.2, f, c, k, k)
	gout := tensor.RandN(r, 0, 1, n, f, hw, hw)
	dw, db := tensor.New(f, c, k, k), tensor.New(f)
	be := compute.NewSerial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DGradsInto(be, nil, dw, db, x, w, gout, p)
	}
}

// The two conv layers of the bench-scale LeNet at batch 32, the first
// over an encoder plane at 25 %, and the paper's first layer at batch 64.
func BenchmarkConvWeightGradientC1(b *testing.B) { benchConvWeightGradient(b, 32, 1, 16, 6, 5, 0.25) }
func BenchmarkConvWeightGradientC2(b *testing.B) { benchConvWeightGradient(b, 32, 6, 8, 12, 3, -1) }
func BenchmarkPaperShapeWeightGradient(b *testing.B) {
	benchConvWeightGradient(b, 64, 1, 28, 6, 5, 0.25)
}

func BenchmarkSNNForwardT12(b *testing.B) {
	net, err := core.NewSpikingLeNet5(core.DefaultLeNetConfig(16, 1), 1, 12, core.SNNOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(4, 4)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := autodiff.NewTape()
		net.Logits(tp, tp.Const(x))
		tp.Release()
	}
}

func BenchmarkSNNBackwardT12(b *testing.B) {
	net, err := core.NewSpikingLeNet5(core.DefaultLeNetConfig(16, 1), 1, 12, core.SNNOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(5, 5)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainStep(nil, net, x, labels)
	}
}

// trainStep is one training iteration as train.Fit runs it, less the
// optimiser: zero the gradients, forward, backward, and give the tape's
// buffers back to the arena — without the Release every iteration's
// slabs fall to the garbage collector, the arena stays empty, and the
// bench times a regime training never runs.
func trainStep(be compute.Backend, net nn.Classifier, x *tensor.Tensor, labels []int) {
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	tp := autodiff.NewTapeOn(be)
	tp.Backward(tp.SoftmaxCrossEntropy(net.Logits(tp, tp.Const(x)), labels))
	tp.Release()
}

func BenchmarkCNNForward(b *testing.B) {
	cnn, err := core.NewLeNet5CNN(core.DefaultLeNetConfig(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(6, 6)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := autodiff.NewTape()
		cnn.Logits(tp, tp.Const(x))
		tp.Release()
	}
}

func BenchmarkPGDStepOnCNN(b *testing.B) {
	cnn, err := core.NewLeNet5CNN(core.DefaultLeNetConfig(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(7, 7)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.InputGradient(cnn, x, labels)
	}
}

func BenchmarkSynthDigits(b *testing.B) {
	cfg := dataset.DefaultSynthConfig(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.SynthDigits(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Compute-backend benchmarks: each kernel on the Serial and Parallel
// backends, plus the old-vs-new kernel pairs of the batched-conv PR
// (per-image vs batched conv pipeline, naive vs blocked matmul). The
// repository's record of performance is benchmark/ + BENCHMARK.json;
// these are for measuring while working on a kernel.

func benchMatMul256(b *testing.B, be compute.Backend) {
	r := tensor.NewRand(9, 9)
	x := tensor.RandN(r, 0, 1, 256, 256)
	y := tensor.RandN(r, 0, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulOn(be, x, y)
	}
}

func BenchmarkMatMul256Serial(b *testing.B)   { benchMatMul256(b, compute.NewSerial()) }
func BenchmarkMatMul256Parallel(b *testing.B) { benchMatMul256(b, compute.NewParallel(0)) }

// benchMatMul256Naive is the naive-reference side of the naive-vs-blocked
// matmul pair.
func benchMatMul256Naive(b *testing.B, be compute.Backend) {
	r := tensor.NewRand(9, 9)
	x := tensor.RandN(r, 0, 1, 256, 256)
	y := tensor.RandN(r, 0, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulNaiveOn(be, x, y)
	}
}

func BenchmarkMatMul256Naive(b *testing.B) { benchMatMul256Naive(b, compute.NewSerial()) }

func convBenchFixture() (x, w, bias *tensor.Tensor, p tensor.ConvParams) {
	r := tensor.NewRand(10, 10)
	x = tensor.RandN(r, 0, 1, 32, 1, 16, 16)
	w = tensor.RandN(r, 0, 1, 6, 1, 5, 5)
	bias = tensor.RandN(r, 0, 1, 6)
	return x, w, bias, tensor.ConvParams{Stride: 1, Padding: 2}
}

func benchConvForwardBatch32(b *testing.B, be compute.Backend) {
	x, w, bias, p := convBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DOn(be, x, w, bias, p)
	}
}

func BenchmarkConvForwardBatch32Serial(b *testing.B) {
	benchConvForwardBatch32(b, compute.NewSerial())
}
func BenchmarkConvForwardBatch32Parallel(b *testing.B) {
	benchConvForwardBatch32(b, compute.NewParallel(0))
}

// BenchmarkConvForwardBatch32Stride2 is the same batch at stride 2: the
// forward product that still runs over the im2col column matrix (the
// padded-plane form needs stride 1).
func BenchmarkConvForwardBatch32Stride2(b *testing.B) {
	x, w, bias, p := convBenchFixture()
	p.Stride = 2
	be := compute.NewSerial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DOn(be, x, w, bias, p)
	}
}

// benchConvForwardBatch32PerImage is the per-image reference side of the
// per-image-vs-batched conv pair (PR-1 path: one im2col and one naive
// matmul per image).
func benchConvForwardBatch32PerImage(b *testing.B, be compute.Backend) {
	x, w, bias, p := convBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DPerImageOn(be, x, w, bias, p)
	}
}

func BenchmarkConvForwardBatch32PerImage(b *testing.B) {
	benchConvForwardBatch32PerImage(b, compute.NewSerial())
}

func convBackwardBenchFixture() (x, w, gout *tensor.Tensor, p tensor.ConvParams) {
	x, w, _, p = convBenchFixture()
	r := tensor.NewRand(12, 12)
	gout = tensor.RandN(r, 0, 1, 32, 6, 16, 16)
	return x, w, gout, p
}

func benchConvBackwardBatch32(b *testing.B, be compute.Backend) {
	x, w, gout, p := convBackwardBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DBackwardOn(be, x, w, gout, p, true)
	}
}

func BenchmarkConvBackwardBatch32Serial(b *testing.B) {
	benchConvBackwardBatch32(b, compute.NewSerial())
}

func benchConvBackwardBatch32PerImage(b *testing.B, be compute.Backend) {
	x, w, gout, p := convBackwardBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DBackwardPerImageOn(be, x, w, gout, p, true)
	}
}

func BenchmarkConvBackwardBatch32PerImage(b *testing.B) {
	benchConvBackwardBatch32PerImage(b, compute.NewSerial())
}

func benchSNNBPTTStep(b *testing.B, be compute.Backend) {
	net, err := core.NewSpikingLeNet5(core.DefaultLeNetConfig(16, 1), 1, 12, core.SNNOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(11, 11)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainStep(be, net, x, labels)
	}
}

func BenchmarkSNNBPTTStepSerial(b *testing.B)   { benchSNNBPTTStep(b, compute.NewSerial()) }
func BenchmarkSNNBPTTStepParallel(b *testing.B) { benchSNNBPTTStep(b, compute.NewParallel(0)) }

// BenchmarkSNNInputGradient is one PGD gradient step as the sweep takes
// it: ∇ₓL through the bench-scale spiking LeNet at (Vth, T) = (1, 8), one
// evaluation batch, serial backend. The tape is frozen, so this times the
// forward pass plus the input-side products of the backward pass only.
func BenchmarkSNNInputGradient(b *testing.B) {
	s := core.BenchScale()
	net, x, labels := sweepStepFixture(b, 19, s.EvalBatch)
	be := compute.NewSerial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.InputGradientOn(be, net, x, labels)
	}
}

// BenchmarkPaperShapeInputGradient is one PGD gradient step at the
// paper's shapes: 28×28 synthetic digits, the full LeNet-5 (6/16/120),
// batch 64, (Vth, T) = (1, 64), serial backend. The bench-scale numbers
// everything else in this file reports stand for this step; it is here
// so a kernel change can be checked against the shapes the paper pays
// for (EXPERIMENTS.md records parent vs change and the kernel shares).
func BenchmarkPaperShapeInputGradient(b *testing.B) {
	const batch = 64
	_, ds, err := core.LoadData(core.DataConfig{TrainN: 10, TestN: batch, ImageSize: 28, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	net, err := core.NewSpikingLeNet5(core.FullLeNetConfig(7), 1, 64, core.SNNOptions{})
	if err != nil {
		b.Fatal(err)
	}
	be := compute.NewSerial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.InputGradientOn(be, net, ds.X, ds.Y)
	}
}

// sweepStepFixture is the bench-scale spiking LeNet at (Vth, T) = (1, 8)
// with one seed-drawn batch, as the sweep trains and attacks it.
func sweepStepFixture(b *testing.B, seed uint64, batch int) (*snn.Network, *tensor.Tensor, []int) {
	s := core.BenchScale()
	net, err := core.NewSpikingLeNet5(s.Net, 1, 8, core.SNNOptions{})
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.RandN(tensor.NewRand(seed, seed), 0, 1, batch, 1, s.Net.ImageSize, s.Net.ImageSize)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % core.NumClasses
	}
	return net, x, labels
}

// BenchmarkSNNTrainStep is one training step as the sweep takes it:
// forward, backward with every weight gradient and no input gradient, and
// the arena release, one training batch, serial backend.
func BenchmarkSNNTrainStep(b *testing.B) {
	net, x, labels := sweepStepFixture(b, 20, core.BenchScale().BatchSize)
	be := compute.NewSerial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainStep(be, net, x, labels)
	}
}

// ---------------------------------------------------------------------------
// Streaming inference (PR 9)

// newStreamBenchNet is the event-driven fixture: a dense-layer SNN over
// a 16x16 sensor whose encoder is never called — the binner feeds
// packed spike planes straight into the stateful engine.
func newStreamBenchNet() *snn.Network {
	r := tensor.NewRand(24, 0x57e4)
	cfg := snn.NeuronConfig{Vth: 0.3, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 25}}
	return &snn.Network{
		Encoder: snn.ConstantCurrentEncoder{Gain: 1},
		Hidden: []snn.Layer{
			{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, 16*16, 32)), Cfg: cfg},
			{Syn: nn.NewLinear(r, 32, 32), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 32, core.NumClasses),
		ReadoutCfg: cfg,
		Mode:       snn.ReadoutSpikeCount,
		T:          4,
		LogitScale: 10,
	}
}

// streamBenchServer wires the fixture into a streaming server: 16x16
// sensor, 4 steps per 4ms window, tiling hops (carried state).
func streamBenchServer(be compute.Backend) (*stream.Server, error) {
	eng, err := serve.NewEngine(newStreamBenchNet(), be, []int{1, 16, 16})
	if err != nil {
		return nil, err
	}
	return stream.NewServer(stream.Config{
		Binner: stream.BinnerConfig{H: 16, W: 16, Steps: 4, WindowUS: 4000},
	}, func() (stream.Runner, error) {
		return eng.NewStatefulRunner(compute.PackSpikePlanes())
	})
}

func streamBenchSource() (stream.EventSource, int64, error) {
	src, err := dataset.NewGlyphEventStream(dataset.DefaultEventStreamConfig(
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 42))
	if err != nil {
		return nil, 0, err
	}
	return src, src.EndUS(), nil
}

// countingSource counts the events the wrapped source hands out.
type countingSource struct {
	src stream.EventSource
	n   int
}

func (c *countingSource) Read(buf []stream.Event) (int, error) {
	n, err := c.src.Read(buf)
	c.n += n
	return n, err
}

// BenchmarkStreamEventThroughput runs the event path end to end on one
// core: one op = one full replay of the 200ms synthetic stream — glyph
// events → binner → stateful forward — through a fresh session.
func BenchmarkStreamEventThroughput(b *testing.B) {
	sv, err := streamBenchServer(compute.NewSerial())
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, endUS, err := streamBenchSource()
		if err != nil {
			b.Fatal(err)
		}
		cs := &countingSource{src: src}
		if _, err := sv.RunSource(context.Background(), cs, endUS, io.Discard); err != nil {
			b.Fatal(err)
		}
		events += cs.n
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkAdamStep(b *testing.B) {
	r := tensor.NewRand(8, 8)
	params := []*nn.Param{
		nn.NewParam("w", tensor.RandN(r, 0, 1, 256, 256)),
	}
	params[0].Grad.CopyFrom(tensor.RandN(r, 0, 1, 256, 256))
	opt := train.NewAdam(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(params)
	}
}
