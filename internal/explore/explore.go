// Package explore implements the paper's contribution: the systematic
// robustness-exploration methodology of Algorithm 1. For every point of a
// (Vth, T) grid it trains a spiking network, applies the learnability
// gate (clean accuracy ≥ Ath, 70 % in the paper), and for each surviving
// point evaluates robustness against PGD across a sweep of noise budgets
// ε. Grid points are independent, so they run on a worker pool.
package explore

import (
	"fmt"
	"sync"

	"snnsec/internal/attack"
	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// BuildSNN constructs a fresh spiking network for one grid point.
type BuildSNN func(vth float64, T int) (*snn.Network, error)

// Config parameterises one exploration run (Algorithm 1's inputs).
type Config struct {
	// Vths are the membrane voltage thresholds V_i, i ∈ [1, n].
	Vths []float64
	// Ts are the spiking time windows T_j, j ∈ [1, m].
	Ts []int
	// Epsilons are the adversarial noise budgets ε_k, k ∈ [1, p].
	Epsilons []float64
	// AccuracyThreshold is A_th, the learnability gate (default 0.70).
	AccuracyThreshold float64
	// Train configures the per-point training run. Its Optimizer field
	// must be nil: grid points train concurrently and optimiser state
	// (momentum, Adam moments) must not be shared — set NewOptimizer
	// instead.
	Train train.Config
	// NewOptimizer builds a fresh optimiser for each grid point. When
	// nil, each point gets Adam(1e-3).
	NewOptimizer func() train.Optimizer
	// AttackSteps is the PGD iteration count (default 10).
	AttackSteps int
	// EvalBatch is the evaluation batch size (default 32).
	EvalBatch int
	// Workers bounds the parallel grid points. The default is the CPU
	// budget: the width of the process-default compute backend (NumCPU
	// unless overridden, e.g. by the CLI's -workers flag).
	Workers int
	// KernelWorkers is the compute-backend width handed to each grid
	// worker: the tensor kernels under one grid point run on a backend of
	// this width, so total parallelism is Workers × KernelWorkers. The
	// default, max(1, budget/Workers) with budget as above, keeps that
	// product within the CPU budget — grid-level and kernel-level
	// parallelism compose without oversubscribing the machine.
	KernelWorkers int
	// Build constructs the network for a grid point.
	Build BuildSNN
	// Seed derives per-point attack generators.
	Seed uint64
}

// Validate checks the configuration and fills defaulted fields. Run and
// the per-point entry points call it internally; distributed coordinators
// call it up front to learn the grid dimensions.
func (c *Config) Validate() error {
	if len(c.Vths) == 0 || len(c.Ts) == 0 {
		return fmt.Errorf("explore: empty (Vth, T) grid")
	}
	// Zero axis values are rejected so that a zero-valued Point is an
	// unambiguous "never computed" marker in partial (checkpointed or
	// merged) results.
	for _, v := range c.Vths {
		if err := snn.CheckVth(v); err != nil {
			return fmt.Errorf("explore: Vths: %w", err)
		}
	}
	for _, t := range c.Ts {
		if t <= 0 {
			return fmt.Errorf("explore: time window T must be positive, got %d", t)
		}
	}
	if len(c.Epsilons) == 0 {
		return fmt.Errorf("explore: no noise budgets")
	}
	for _, e := range c.Epsilons {
		if err := attack.CheckEps(e); err != nil {
			return fmt.Errorf("explore: Epsilons: %w", err)
		}
	}
	if c.Build == nil {
		return fmt.Errorf("explore: no network builder")
	}
	if c.Train.Optimizer != nil {
		return fmt.Errorf("explore: Train.Optimizer would be shared across concurrent grid points; set NewOptimizer instead")
	}
	if c.AccuracyThreshold == 0 {
		c.AccuracyThreshold = 0.70
	}
	if c.AccuracyThreshold < 0 || c.AccuracyThreshold > 1 {
		return fmt.Errorf("explore: accuracy threshold %g out of [0,1]", c.AccuracyThreshold)
	}
	if c.AttackSteps < 0 {
		return fmt.Errorf("explore: AttackSteps must be non-negative (0 selects the default 10), got %d", c.AttackSteps)
	}
	if c.AttackSteps == 0 {
		c.AttackSteps = 10
	}
	if c.EvalBatch <= 0 {
		c.EvalBatch = 32
	}
	// The sweep's CPU budget is the default backend's width, so a global
	// override (the CLI's -workers flag) bounds grid-level and
	// kernel-level parallelism together. Workers is clamped to the grid
	// size: a 2×2 grid on a 16-CPU budget gets 4 workers with width-4
	// kernel backends rather than 16 workers of which 12 would idle.
	budget := compute.Default().Workers()
	if c.Workers <= 0 {
		c.Workers = budget
	}
	if points := len(c.Vths) * len(c.Ts); c.Workers > points {
		c.Workers = points
	}
	if c.KernelWorkers <= 0 {
		c.KernelWorkers = budget / c.Workers
		if c.KernelWorkers < 1 {
			c.KernelWorkers = 1
		}
	}
	return nil
}

// backend returns the bounded-width compute backend each grid worker
// executes its kernels on.
func (c *Config) backend() compute.Backend { return compute.New(c.KernelWorkers) }

// Point is the outcome at one (Vth, T) grid position.
type Point struct {
	Vth float64
	T   int
	// CleanAccuracy is the test accuracy without attack (Figure 6's
	// heat-map cell).
	CleanAccuracy float64
	// Learnable reports whether CleanAccuracy ≥ A_th; robustness is only
	// evaluated for learnable points (Algorithm 1, line 4).
	Learnable bool
	// Robustness holds robust accuracy per ε for learnable points
	// (Figures 7/8 cells; a full row of Figure 9).
	Robustness []attack.CurvePoint
	// Err records a per-point failure (e.g. diverged training); the
	// sweep continues past it.
	Err error
}

// RobustAt returns the robust accuracy at budget eps, or (0, false) when
// the point was not evaluated at it.
func (p *Point) RobustAt(eps float64) (float64, bool) {
	for _, cp := range p.Robustness {
		if cp.Eps == eps {
			return cp.RobustAccuracy, true
		}
	}
	return 0, false
}

// Result is the full grid outcome.
type Result struct {
	Vths     []float64
	Ts       []int
	Epsilons []float64
	// Points is indexed [ti*len(Vths) + vi] — T-major, matching the
	// paper's heat maps (T on the vertical axis).
	Points []Point
}

// At returns the point for the vi-th threshold and ti-th window.
func (r *Result) At(vi, ti int) *Point {
	return &r.Points[ti*len(r.Vths)+vi]
}

// NewPartialResult returns a Result with the given axes and every point
// unset (zero-valued). Distributed coordinators fill it point by point
// with Set as shards report in; because valid grids have Vth > 0 and
// T > 0, an unset point is recognisable by its zero T.
func NewPartialResult(vths []float64, ts []int, epsilons []float64) *Result {
	return &Result{
		Vths:     append([]float64(nil), vths...),
		Ts:       append([]int(nil), ts...),
		Epsilons: append([]float64(nil), epsilons...),
		Points:   make([]Point, len(vths)*len(ts)),
	}
}

// Set stores the point at grid index idx (T-major).
func (r *Result) Set(idx int, p Point) { r.Points[idx] = p }

// Computed reports whether the point at idx has been filled in.
func (r *Result) Computed(idx int) bool { return r.Points[idx].T != 0 }

// MissingIndices returns the grid indices that have not been computed —
// empty for a complete result, the remaining work-list for a partial
// (checkpoint-resumed or budget-limited) one.
func (r *Result) MissingIndices() []int {
	var out []int
	for i := range r.Points {
		if !r.Computed(i) {
			out = append(out, i)
		}
	}
	return out
}

// LearnableCount returns how many grid points passed the gate.
func (r *Result) LearnableCount() int {
	n := 0
	for i := range r.Points {
		if r.Points[i].Learnable {
			n++
		}
	}
	return n
}

// TrainedPoint is one grid position after the training phase: the model
// itself is retained for the robustness sweep and for a distributed
// worker's model snapshot.
type TrainedPoint struct {
	Vth           float64
	T             int
	Net           *snn.Network
	CleanAccuracy float64
	Learnable     bool
	Err           error
}

// attackPoint runs lines 5-16 of Algorithm 1 for one trained point. The
// PGD generator derives from (cfg.Seed, idx) alone, so the outcome does
// not depend on which worker — goroutine or process — executes it.
func attackPoint(cfg Config, be compute.Backend, idx int, tp *TrainedPoint, testDS *dataset.Dataset, epsilons []float64, bounds attack.Bounds) Point {
	pt := Point{
		Vth:           tp.Vth,
		T:             tp.T,
		CleanAccuracy: tp.CleanAccuracy,
		Learnable:     tp.Learnable,
		Err:           tp.Err,
	}
	if tp.Learnable && tp.Err == nil {
		pt.Robustness = attack.CurveOn(be, tp.Net, testDS, epsilons, func(eps float64) attack.Attack {
			return attack.PGD{
				Eps:         eps,
				Steps:       cfg.AttackSteps,
				RandomStart: true,
				Rand:        tensor.NewRand(cfg.Seed+uint64(idx), 0xa77ac4),
				Bounds:      bounds,
				Backend:     be,
			}
		}, cfg.EvalBatch)
	}
	return pt
}

// ---------------------------------------------------------------------------
// Per-point entry points — the unit of distributed execution
//
// A distributed grid engine (internal/grid) runs one point at a time in a
// worker process and merges the streamed results. The contract that makes
// the merge bit-identical to the single-process Run is that every source
// of randomness under a point — the training-set shuffle, the network's
// weight initialisation and encoder stream (owned by cfg.Build), and the
// PGD start points — derives from cfg.Seed and the point's T-major grid
// index alone, never from shared or sequential state.

// TrainPointAt validates cfg and trains the idx-th grid point (T-major)
// on be — lines 3-4 of Algorithm 1 for a single point. A nil backend
// selects a backend of cfg.KernelWorkers width.
func TrainPointAt(cfg Config, be compute.Backend, idx int, trainDS, testDS *dataset.Dataset) (TrainedPoint, error) {
	if err := (&cfg).Validate(); err != nil {
		return TrainedPoint{}, err
	}
	if idx < 0 || idx >= len(cfg.Vths)*len(cfg.Ts) {
		return TrainedPoint{}, fmt.Errorf("explore: point index %d out of a %d-point grid", idx, len(cfg.Vths)*len(cfg.Ts))
	}
	if be == nil {
		be = cfg.backend()
	}
	vi, ti := idx%len(cfg.Vths), idx/len(cfg.Vths)
	return trainPoint(cfg, be, cfg.Vths[vi], cfg.Ts[ti], uint64(idx), trainDS, testDS), nil
}

// AttackPointAt evaluates the robustness sweep (lines 5-16) for a point
// trained by TrainPointAt and assembles its grid Point.
func AttackPointAt(cfg Config, be compute.Backend, idx int, tp *TrainedPoint, testDS *dataset.Dataset, epsilons []float64) (Point, error) {
	if err := (&cfg).Validate(); err != nil {
		return Point{}, err
	}
	if idx < 0 || idx >= len(cfg.Vths)*len(cfg.Ts) {
		return Point{}, fmt.Errorf("explore: point index %d out of a %d-point grid", idx, len(cfg.Vths)*len(cfg.Ts))
	}
	if be == nil {
		be = cfg.backend()
	}
	return attackPoint(cfg, be, idx, tp, testDS, epsilons, attack.DatasetBounds(testDS)), nil
}

// RunPointAt executes Algorithm 1 for one grid point: train, gate,
// robustness sweep at cfg.Epsilons. It returns the trained point as well
// so callers can snapshot the model.
func RunPointAt(cfg Config, be compute.Backend, idx int, trainDS, testDS *dataset.Dataset) (TrainedPoint, Point, error) {
	tp, err := TrainPointAt(cfg, be, idx, trainDS, testDS)
	if err != nil {
		return TrainedPoint{}, Point{}, err
	}
	pt, err := AttackPointAt(cfg, be, idx, &tp, testDS, cfg.Epsilons)
	if err != nil {
		return TrainedPoint{}, Point{}, err
	}
	return tp, pt, nil
}

// Run executes Algorithm 1 over the grid with grid points distributed
// over a worker pool: each worker trains a point, applies the
// learnability gate and, for a learnable point, runs the robustness
// sweep at cfg.Epsilons — RunPointAt's sequence — before taking the
// next point.
func Run(cfg Config, trainDS, testDS *dataset.Dataset) (*Result, error) {
	if err := (&cfg).Validate(); err != nil {
		return nil, err
	}
	res := NewPartialResult(cfg.Vths, cfg.Ts, cfg.Epsilons)
	bounds := attack.DatasetBounds(testDS)
	forEachPoint(cfg, func(vi, ti int, be compute.Backend) {
		idx := ti*len(cfg.Vths) + vi
		tp := trainPoint(cfg, be, cfg.Vths[vi], cfg.Ts[ti], uint64(idx), trainDS, testDS)
		res.Points[idx] = attackPoint(cfg, be, idx, &tp, testDS, cfg.Epsilons, bounds)
	})
	return res, nil
}

// forEachPoint distributes the grid positions over cfg.Workers goroutines
// and waits for completion. Each worker receives a compute backend of
// width cfg.KernelWorkers for the tensor kernels under its grid points.
func forEachPoint(cfg Config, f func(vi, ti int, be compute.Backend)) {
	type job struct{ vi, ti int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			be := cfg.backend()
			for j := range jobs {
				f(j.vi, j.ti, be)
			}
		}()
	}
	for ti := range cfg.Ts {
		for vi := range cfg.Vths {
			jobs <- job{vi, ti}
		}
	}
	close(jobs)
	wg.Wait()
}

// trainPoint runs lines 3-4 of Algorithm 1 for a single (Vth, T) on the
// given compute backend.
func trainPoint(cfg Config, be compute.Backend, vth float64, T int, idx uint64, trainDS, testDS *dataset.Dataset) TrainedPoint {
	pt := TrainedPoint{Vth: vth, T: T}
	net, err := cfg.Build(vth, T)
	if err != nil {
		pt.Err = fmt.Errorf("explore: build (Vth=%g, T=%d): %w", vth, T, err)
		return pt
	}
	// Each worker trains on its own copy of the training set: train.Fit
	// may shuffle, and the dataset is shared across goroutines.
	localTrain := trainDS.Subset(0, trainDS.Len())
	tcfg := cfg.Train
	tcfg.Backend = be
	if cfg.NewOptimizer != nil {
		tcfg.Optimizer = cfg.NewOptimizer()
	}
	if tcfg.Shuffle != nil {
		// Derive an independent deterministic stream per point.
		tcfg.Shuffle = tensor.NewRand(cfg.Seed^idx, 0x7ea1)
	}
	if _, err := train.Fit(net, localTrain, tcfg); err != nil {
		pt.Err = fmt.Errorf("explore: train (Vth=%g, T=%d): %w", vth, T, err)
		return pt
	}
	pt.Net = net
	pt.CleanAccuracy = train.EvaluateOn(be, net, testDS, cfg.EvalBatch)
	pt.Learnable = pt.CleanAccuracy >= cfg.AccuracyThreshold
	return pt
}
