package core

import (
	"fmt"
	"io"
	"os"
	"slices"

	"snnsec/internal/attack"
	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/explore"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// Scale bundles every knob of an experiment run so the same code serves
// both the CPU-friendly benchmark harness and a paper-scale run.
type Scale struct {
	Name string
	Data DataConfig
	// Net is the architecture scaling.
	Net LeNetConfig
	// Epochs / BatchSize / LR configure training (CNN and each SNN grid
	// point alike).
	Epochs    int
	BatchSize int
	LR        float64
	GradClip  float64
	// DefaultVth / DefaultT are the paper's default structural point
	// used in the motivational study (paper: (1, 64)).
	DefaultVth float64
	DefaultT   int
	// Grid axes (Figures 6-8).
	Vths []float64
	Ts   []int
	// HeatmapEpsilons are the budgets of Figures 7 and 8.
	HeatmapEpsilons []float64
	// CurveEpsilons is the ε sweep of Figures 1 and 9.
	CurveEpsilons []float64
	// AttackSteps is the PGD iteration count.
	AttackSteps int
	EvalBatch   int
	Workers     int
	Seed        uint64
}

// ScaleEnv selects the full-scale preset when set to "paper".
const ScaleEnv = "SNNSEC_SCALE"

// BenchScale is the default preset: small enough to regenerate every
// figure on a single CPU core in minutes while preserving the qualitative
// shapes (see DESIGN.md on the substitution).
func BenchScale() Scale {
	return Scale{
		Name:            "bench",
		Data:            DataConfig{TrainN: 600, TestN: 80, ImageSize: 16, Seed: 1},
		Net:             DefaultLeNetConfig(16, 7),
		Epochs:          6,
		BatchSize:       32,
		LR:              3e-3,
		GradClip:        5,
		DefaultVth:      1,
		DefaultT:        12,
		Vths:            []float64{0.5, 1, 1.5, 2.25},
		Ts:              []int{4, 8, 12},
		HeatmapEpsilons: []float64{1.0, 1.5},
		CurveEpsilons:   []float64{0, 0.5, 1.0, 1.5, 2.0},
		AttackSteps:     5,
		EvalBatch:       32,
		Workers:         0, // NumCPU
		Seed:            42,
	}
}

// TinyScale is the smallest preset that still exercises every phase of
// Algorithm 1: a 2×2 grid over a 12×12 synthetic set, two epochs, one
// heat-map budget. It exists for smoke tests — the CI's distributed grid
// checks train it in seconds — not for meaningful curves; selected with
// SNNSEC_SCALE=tiny.
func TinyScale() Scale {
	return Scale{
		Name:            "tiny",
		Data:            DataConfig{TrainN: 96, TestN: 32, ImageSize: 12, Seed: 1},
		Net:             DefaultLeNetConfig(12, 7),
		Epochs:          2,
		BatchSize:       32,
		LR:              3e-3,
		GradClip:        5,
		DefaultVth:      1,
		DefaultT:        4,
		Vths:            []float64{0.5, 1},
		Ts:              []int{2, 4},
		HeatmapEpsilons: []float64{1.0},
		CurveEpsilons:   []float64{0, 1.0},
		AttackSteps:     2,
		EvalBatch:       32,
		Workers:         0,
		Seed:            42,
	}
}

// PaperScale mirrors the paper's setting (28×28, LeNet-5 widths, the full
// 8×8 grid of Figure 6, PGD with 10 steps). On one CPU core this takes
// hours-to-days; it exists so the experiment is *recoverable*, and is
// selected with SNNSEC_SCALE=paper.
func PaperScale() Scale {
	return Scale{
		Name:            "paper",
		Data:            DataConfig{TrainN: 10000, TestN: 1000, ImageSize: 28, Seed: 1},
		Net:             FullLeNetConfig(7),
		Epochs:          10,
		BatchSize:       64,
		LR:              1e-3,
		GradClip:        5,
		DefaultVth:      1,
		DefaultT:        64,
		Vths:            []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 2.25, 2.5},
		Ts:              []int{8, 16, 24, 32, 40, 48, 56, 64, 72},
		HeatmapEpsilons: []float64{1.0, 1.5},
		CurveEpsilons:   []float64{0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0},
		AttackSteps:     10,
		EvalBatch:       100,
		Workers:         0,
		Seed:            42,
	}
}

// ScaleFromEnv returns PaperScale when SNNSEC_SCALE=paper, TinyScale
// when SNNSEC_SCALE=tiny, else BenchScale.
func ScaleFromEnv() Scale {
	switch os.Getenv(ScaleEnv) {
	case "paper":
		return PaperScale()
	case "tiny":
		return TinyScale()
	default:
		return BenchScale()
	}
}

func (s Scale) trainConfig() train.Config {
	return train.Config{
		Epochs:    s.Epochs,
		BatchSize: s.BatchSize,
		Optimizer: train.NewAdam(s.LR),
		GradClip:  s.GradClip,
		Shuffle:   tensor.NewRand(s.Seed, 0x5f),
	}
}

// TrainCNN trains the LeNet-5 baseline and returns it with its test
// accuracy.
func (s Scale) TrainCNN(trainDS, testDS *dataset.Dataset) (*nn.Sequential, float64, error) {
	cnn, err := NewLeNet5CNN(s.Net)
	if err != nil {
		return nil, 0, err
	}
	if _, err := train.Fit(cnn, trainDS, s.trainConfig()); err != nil {
		return nil, 0, err
	}
	return cnn, train.Evaluate(cnn, testDS, s.EvalBatch), nil
}

// Point returns the explore configuration and T-major grid index that
// train and attack the (vth, T) point: GridConfig and the point's index
// when (vth, T) is on this scale's grid, else a 1×1 grid of that point at
// index 0. Every network and robust accuracy the figures, commands and
// examples report comes through it, so a figure's point and the heat-map
// cell at the same (Vth, T) are one network under one attack.
func (s Scale) Point(vth float64, T int) (explore.Config, int) {
	cfg := s.GridConfig()
	vi, ti := slices.Index(s.Vths, vth), slices.Index(s.Ts, T)
	if vi >= 0 && ti >= 0 {
		return cfg, ti*len(s.Vths) + vi
	}
	cfg.Vths, cfg.Ts = []float64{vth}, []int{T}
	return cfg, 0
}

// TrainSNN trains a spiking LeNet-5 at the given structural point on the
// default backend: the network the grid trains at that point.
func (s Scale) TrainSNN(vth float64, T int, trainDS, testDS *dataset.Dataset) (*snn.Network, float64, error) {
	cfg, idx := s.Point(vth, T)
	tp, err := explore.TrainPointAt(cfg, compute.Default(), idx, trainDS, testDS)
	if err == nil {
		err = tp.Err
	}
	if err != nil {
		return nil, 0, err
	}
	return tp.Net, tp.CleanAccuracy, nil
}

// curve traces model's robust accuracy over s.CurveEpsilons under the
// point attack of cfg's idx-th point, in CurveEpsilons order. It runs
// cfg.Epsilons first, in the grid's order, then the rest: a spiking
// network's Poisson encoder carries its generator from one evaluation to
// the next, so a reading depends on the budgets that ran before it, and
// this order makes a curve's heat-map budgets read what the grid cell
// reads.
func (s Scale) curve(model nn.Classifier, cfg explore.Config, idx int, testDS *dataset.Dataset) []attack.CurvePoint {
	be := compute.Default()
	order := slices.Clone(cfg.Epsilons)
	for _, eps := range s.CurveEpsilons {
		if !slices.Contains(order, eps) {
			order = append(order, eps)
		}
	}
	got := attack.CurveOn(be, model, testDS, order, cfg.PGD(idx, be, attack.DatasetBounds(testDS)), s.EvalBatch)
	out := make([]attack.CurvePoint, len(s.CurveEpsilons))
	for i, eps := range s.CurveEpsilons {
		out[i] = got[slices.Index(order, eps)]
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 1 — motivational study

// Fig1Result holds the CNN-vs-SNN robustness curves of the motivational
// case study.
type Fig1Result struct {
	CNNClean, SNNClean float64
	CNN, SNN           []attack.CurvePoint
}

// Crossover returns the smallest ε at which the SNN's robust accuracy
// exceeds the CNN's (the paper's "turnaround point", ε = 0.5 there), or
// (0, false) when no crossover occurs.
func (r *Fig1Result) Crossover() (float64, bool) {
	for i := range r.CNN {
		if r.SNN[i].RobustAccuracy > r.CNN[i].RobustAccuracy {
			return r.CNN[i].Eps, true
		}
	}
	return 0, false
}

// RunFig1 trains the architecture-matched CNN and SNN (default structural
// parameters) and evaluates both under the PGD ε sweep.
func RunFig1(s Scale, logw io.Writer) (*Fig1Result, error) {
	trainDS, testDS, err := LoadData(s.Data)
	if err != nil {
		return nil, err
	}
	cnn, cnnAcc, err := s.TrainCNN(trainDS, testDS)
	if err != nil {
		return nil, err
	}
	logf(logw, "fig1: CNN clean accuracy %.3f\n", cnnAcc)
	snnNet, snnAcc, err := s.TrainSNN(s.DefaultVth, s.DefaultT, trainDS, testDS)
	if err != nil {
		return nil, err
	}
	logf(logw, "fig1: SNN(Vth=%g, T=%d) clean accuracy %.3f\n", s.DefaultVth, s.DefaultT, snnAcc)
	// Both models face the default point's attack, random starts and all.
	cfg, idx := s.Point(s.DefaultVth, s.DefaultT)
	res := &Fig1Result{
		CNNClean: cnnAcc,
		SNNClean: snnAcc,
		CNN:      s.curve(cnn, cfg, idx, testDS),
		SNN:      s.curve(snnNet, cfg, idx, testDS),
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figures 6, 7, 8 — the (Vth, T) exploration grid

// GridConfig assembles the explore configuration of Algorithm 1 at this
// scale. It is the single construction point shared by the in-process
// RunGrid and the distributed grid job builder, so a sharded run
// reproduces the single-process configuration exactly.
func (s Scale) GridConfig() explore.Config {
	tcfg := s.trainConfig()
	tcfg.Optimizer = nil // one optimiser per grid point, built below
	return explore.Config{
		Vths:              s.Vths,
		Ts:                s.Ts,
		Epsilons:          s.HeatmapEpsilons,
		AccuracyThreshold: 0.70,
		Train:             tcfg,
		NewOptimizer:      func() train.Optimizer { return train.NewAdam(s.LR) },
		AttackSteps:       s.AttackSteps,
		EvalBatch:         s.EvalBatch,
		Workers:           s.Workers,
		Seed:              s.Seed,
		Build: func(vth float64, T int) (*snn.Network, error) {
			return NewSpikingLeNet5(s.Net, vth, T)
		},
	}
}

// RunGrid executes Algorithm 1 at this scale: it is the shared engine of
// Figures 6 (clean-accuracy heat map), 7 and 8 (robustness heat maps).
func RunGrid(s Scale, logw io.Writer) (*explore.Result, error) {
	trainDS, testDS, err := LoadData(s.Data)
	if err != nil {
		return nil, err
	}
	res, err := explore.Run(s.GridConfig(), trainDS, testDS)
	if err != nil {
		return nil, err
	}
	logf(logw, "grid: %d/%d points learnable (Ath=0.70)\n", res.LearnableCount(), len(res.Points))
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 9 — tracked combinations vs the CNN

// Fig9Combo names one tracked structural point and its measured curve.
type Fig9Combo struct {
	Vth   float64
	T     int
	Clean float64
	Curve []attack.CurvePoint
}

// Fig9Result compares selected (Vth, T) combinations against the CNN.
type Fig9Result struct {
	CNN    []attack.CurvePoint
	Combos []Fig9Combo
}

// MaxGapOverCNN returns the largest robust-accuracy margin any combo
// achieves over the CNN across the ε sweep — the paper reports up to
// 85 % for (Vth, T) = (1, 48).
func (r *Fig9Result) MaxGapOverCNN() float64 {
	best := 0.0
	for _, c := range r.Combos {
		for i, p := range c.Curve {
			if gap := p.RobustAccuracy - r.CNN[i].RobustAccuracy; gap > best {
				best = gap
			}
		}
	}
	return best
}

// SelectFig9Combos picks the tracked points from a grid result the way
// the paper does: the most robust learnable combination, the least robust
// learnable combination, and a "medium" point (low clean accuracy that
// still survives attacks better than most). The selection budget eps is
// the largest heat-map ε.
func SelectFig9Combos(res *explore.Result) []explore.Point {
	if len(res.Epsilons) == 0 {
		return nil
	}
	eps := res.Epsilons[len(res.Epsilons)-1]
	var best, worst, medium *explore.Point
	for i := range res.Points {
		p := &res.Points[i]
		if !p.Learnable {
			continue
		}
		r, ok := p.RobustAt(eps)
		if !ok {
			continue
		}
		if best == nil {
			best, worst = p, p
		}
		if rb, _ := best.RobustAt(eps); r > rb {
			best = p
		}
		if rw, _ := worst.RobustAt(eps); r < rw {
			worst = p
		}
	}
	if best == nil {
		return nil
	}
	// Medium: the learnable point whose robustness is closest to the
	// midpoint of best and worst.
	rb, _ := best.RobustAt(eps)
	rw, _ := worst.RobustAt(eps)
	mid := (rb + rw) / 2
	bestDist := -1.0
	for i := range res.Points {
		p := &res.Points[i]
		if !p.Learnable || p == best || p == worst {
			continue
		}
		r, ok := p.RobustAt(eps)
		if !ok {
			continue
		}
		d := r - mid
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			bestDist = d
			medium = p
		}
	}
	out := []explore.Point{*best}
	if worst != best {
		out = append(out, *worst)
	}
	if medium != nil {
		out = append(out, *medium)
	}
	return out
}

// RunFig9 retrains the selected combinations (or the paper's canonical
// three when combos is nil) and traces their full robustness curves
// against the CNN's.
func RunFig9(s Scale, combos []explore.Point, logw io.Writer) (*Fig9Result, error) {
	trainDS, testDS, err := LoadData(s.Data)
	if err != nil {
		return nil, err
	}
	cnn, cnnAcc, err := s.TrainCNN(trainDS, testDS)
	if err != nil {
		return nil, err
	}
	logf(logw, "fig9: CNN clean %.3f\n", cnnAcc)
	cfg, idx := s.Point(s.DefaultVth, s.DefaultT)
	out := &Fig9Result{CNN: s.curve(cnn, cfg, idx, testDS)}
	if combos == nil {
		// The paper's canonical trio, rescaled to this grid: take the
		// default Vth with a long, a short and an over-threshold
		// window/threshold pairing.
		combos = []explore.Point{
			{Vth: s.DefaultVth, T: s.Ts[len(s.Ts)-1]},
			{Vth: s.Vths[len(s.Vths)-1], T: s.Ts[len(s.Ts)/2]},
			{Vth: s.DefaultVth, T: s.Ts[0]},
		}
	}
	for _, c := range combos {
		net, acc, err := s.TrainSNN(c.Vth, c.T, trainDS, testDS)
		if err != nil {
			return nil, err
		}
		logf(logw, "fig9: SNN(Vth=%g, T=%d) clean %.3f\n", c.Vth, c.T, acc)
		cfg, idx := s.Point(c.Vth, c.T)
		out.Combos = append(out.Combos, Fig9Combo{
			Vth:   c.Vth,
			T:     c.T,
			Clean: acc,
			Curve: s.curve(net, cfg, idx, testDS),
		})
	}
	return out, nil
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
