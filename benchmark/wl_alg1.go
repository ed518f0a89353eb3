package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// alg1Sweep is the paper's workload, Algorithm 1, cut to a 2×2 grid so a
// lap is about two seconds: train an SNN per (Vth, T) point, apply the
// learnability gate, run white-box PGD on what passes. It is the only
// workload where the optimizer, the training loop and the grid-level
// scheduler run; serve and stream code does nothing.
type alg1Sweep struct {
	cfg             exploreConfig
	trainDS, testDS *datasetT
}

const (
	alg1TrainN    = 192
	alg1TestN     = 64
	alg1SetupReps = 41 // data generation is milliseconds; report its median so setup_s is never ~0
)

func (w *alg1Sweep) setup(seed uint64) (float64, error) {
	s := benchScale()
	secs := make([]float64, alg1SetupReps)
	for i := range secs {
		t0 := time.Now()
		var err error
		w.trainDS, w.testDS, err = loadData(dataConfig{TrainN: alg1TrainN, TestN: alg1TestN, ImageSize: s.Data.ImageSize, Seed: seed})
		if err != nil {
			return 0, err
		}
		secs[i] = time.Since(t0).Seconds()
	}
	cfg := s.GridConfig()
	cfg.Vths = []float64{0.5, 1.5}
	cfg.Ts = []int{4, 8}
	cfg.Epsilons = []float64{1}
	cfg.Train.Epochs = 3
	cfg.AttackSteps = 3
	// The seed reaches training here, so the gate is set where every
	// point passes it: the amount of work must not depend on the seed.
	cfg.AccuracyThreshold = 1e-9
	// The product's own coarse schedule on this box: one grid worker per
	// CPU, kernels inline. A worker beyond the number of points would
	// never get one, so it is not started: the traced lap's accounting
	// (busy ÷ workers + straggler) counts only workers that can work.
	cfg.Workers = min(runtime.NumCPU(), len(cfg.Vths)*len(cfg.Ts))
	cfg.KernelWorkers = 1
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	w.cfg = cfg
	return median(secs), nil
}

func (w *alg1Sweep) check(*gates) {}
func (w *alg1Sweep) kinds() int   { return 1 }
func (w *alg1Sweep) procs() int   { return 0 }

func (w *alg1Sweep) points() int { return len(w.cfg.Vths) * len(w.cfg.Ts) }

// resultOut turns a grid result into the lap's report: its JSON bytes
// are the hash, and a point that errored or missed the gate is a failed
// op (it would also have skipped its attack, making the lap lighter).
func (w *alg1Sweep) resultOut(res *exploreResult, wall time.Duration) (lapOut, error) {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return lapOut{}, err
	}
	out := lapOut{
		ops:         len(res.Points),
		hash:        hashBytes(buf.Bytes()),
		latencyMS:   float64(wall.Nanoseconds()) / 1e6,
		workPerS:    float64(len(res.Points)) / wall.Seconds(),
		countAllocs: true,
	}
	for i := range res.Points {
		if p := &res.Points[i]; p.Err != nil || !p.Learnable || len(p.Robustness) != len(w.cfg.Epsilons) {
			out.failed++
		}
	}
	return out, nil
}

func (w *alg1Sweep) lap(int) (lapOut, error) {
	t0 := time.Now()
	res, err := exploreRun(w.cfg, w.trainDS, w.testDS)
	wall := time.Since(t0)
	if err != nil {
		return lapOut{}, err
	}
	return w.resultOut(res, wall)
}

// tracedLap is the same sweep run by the benchmark's own loop over grid
// indices, so each phase of a point is a call it can time from outside:
// TrainPointAt (which ends with the gate), AttackPointAt, then — after
// the attack, so the network's encoder stream is where the untraced lap
// has it — the gate once more on its own, and a checkpoint round trip.
func (w *alg1Sweep) tracedLap(r *tracedRun, lap int) (*exploreResult, []trainedPoint, alg1LapStats, error) {
	cfg := w.cfg
	n := w.points()
	res := exploreNewPartialResult(cfg.Vths, cfg.Ts, cfg.Epsilons)
	trained := make([]trainedPoint, n)
	snapBytes := make([]int, n)
	errs := make([]error, n)
	workerEnd := make([]time.Time, cfg.Workers)

	lapID := r.spans.begin("alg1.lap", 0, lap)
	t0 := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < cfg.Workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for idx := range jobs {
				pid := r.spans.begin("explore.point", lapID, lap)
				var tp trainedPoint
				var pt gridPoint
				var err error
				r.spans.time("explore.TrainPointAt", pid, lap, func() {
					tp, err = exploreTrainPointAt(cfg, serial, idx, w.trainDS, w.testDS)
				})
				if err == nil && tp.Err == nil {
					r.spans.time("explore.AttackPointAt", pid, lap, func() {
						pt, err = exploreAttackPointAt(cfg, serial, idx, &tp, w.testDS, cfg.Epsilons)
					})
				}
				if err == nil && tp.Err == nil {
					r.spans.time("train.EvaluateOn", pid, lap, func() {
						evaluateOn(serial, tp.Net, w.testDS, cfg.EvalBatch)
					})
					r.spans.time("modelio.Bytes+FromBytes", pid, lap, func() {
						var raw []byte
						if raw, err = modelioBytes(snnMeta(benchScale().Name, tp.Vth, tp.T), tp.Net.Params()); err == nil {
							snapBytes[idx] = len(raw)
							_, err = modelioFromBytes(raw)
						}
					})
				}
				r.spans.end(pid)
				if err == nil {
					err = tp.Err
				}
				trained[idx], errs[idx] = tp, err
				res.Set(idx, pt)
				workerEnd[wk] = time.Now()
			}
		}(wk)
	}
	for idx := 0; idx < n; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	end := time.Now()
	r.spans.end(lapID)
	for idx, err := range errs {
		if err != nil {
			return nil, nil, alg1LapStats{}, fmt.Errorf("grid point %d: %w", idx, err)
		}
	}

	st := alg1LapStats{wall: end.Sub(t0)}
	gate := r.spans.sum("train.EvaluateOn", lap)
	st.train = r.spans.sum("explore.TrainPointAt", lap) - gate // TrainPointAt ran the gate once itself
	st.gate = gate
	st.attack = r.spans.sum("explore.AttackPointAt", lap)
	st.snapshot = r.spans.sum("modelio.Bytes+FromBytes", lap)
	st.busy = r.spans.sum("explore.point", lap)
	st.straggler = meanIdle(t0, end, workerEnd)
	sort.Ints(snapBytes)
	st.snapshotBytes = snapBytes[len(snapBytes)/2]
	return res, trained, st, nil
}

// meanIdle is the mean, over a lap's workers, of how long each sat
// finished before the lap ended. A worker that never got a point (its end
// is the zero time) was idle for the whole lap, so that busy ÷ workers +
// meanIdle is the lap wall however the points fell.
func meanIdle(lapStart, lapEnd time.Time, workerEnd []time.Time) time.Duration {
	var idle time.Duration
	for _, we := range workerEnd {
		if we.IsZero() {
			we = lapStart
		}
		idle += lapEnd.Sub(we)
	}
	return idle / time.Duration(len(workerEnd))
}

// alg1LapStats is one traced lap's accounting. busy is the sum of the
// point spans over all workers; straggler is the mean, over workers, of
// how long a worker sat finished while the lap was still running.
type alg1LapStats struct {
	wall, busy, straggler         time.Duration
	train, gate, attack, snapshot time.Duration
	snapshotBytes                 int
}

func (w *alg1Sweep) traced(r *tracedRun) error {
	ref, err := w.lap(0) // warm-up, and the result every traced lap must reproduce
	if err != nil {
		return err
	}
	r.failed += ref.failed

	var stats []alg1LapStats
	var trained []trainedPoint
	start := time.Now()
	r.lapsBegin()
	for lap := 0; lap == 0 || lapsLeft(time.Since(start), stats[len(stats)-1].wall, r.budget*6/10); lap++ {
		res, tps, st, err := w.tracedLap(r, lap)
		if err != nil {
			return err
		}
		out, err := w.resultOut(res, st.wall)
		if err != nil {
			return err
		}
		r.ops += out.ops
		r.failed += out.failed
		r.gates.equal("traced sweep result hash", out.hash, ref.hash)
		stats, trained = append(stats, st), tps
	}
	r.lapsEnd(len(stats) * w.points())

	med := func(f func(alg1LapStats) time.Duration) float64 {
		v := make([]float64, len(stats))
		for i, st := range stats {
			v[i] = f(st).Seconds()
		}
		return median(v)
	}
	wall := med(func(s alg1LapStats) time.Duration { return s.wall })
	busy := med(func(s alg1LapStats) time.Duration { return s.busy })
	straggler := med(func(s alg1LapStats) time.Duration { return s.straggler })
	trainS := med(func(s alg1LapStats) time.Duration { return s.train })
	gateS := med(func(s alg1LapStats) time.Duration { return s.gate })
	attackS := med(func(s alg1LapStats) time.Duration { return s.attack })
	snapS := med(func(s alg1LapStats) time.Duration { return s.snapshot })
	nproc := float64(w.cfg.Workers)
	r.set("explore.train_s", trainS)
	r.set("explore.gate_s", gateS)
	r.set("explore.attack_s", attackS)
	r.set("explore.parallel_efficiency", busy/(nproc*wall))
	r.set("explore.straggler_s", straggler)
	r.set("modelio.snapshot_ms", snapS*1e3/float64(w.points()))
	r.set("modelio.snapshot_bytes", float64(stats[len(stats)-1].snapshotBytes))

	// The step and kernel probes run on a network the lap itself trained,
	// the (Vth 0.5, T 8) point, over one training-sized batch.
	net := trained[len(w.cfg.Vths)].Net
	batch := w.trainDS.Batches(w.cfg.Train.BatchSize)[0]
	step := probeStep(net, batch.X, batch.Y, false)
	step.report(r)
	r.set("train.optimizer_ms", probeOptimizer(net, batch.X, batch.Y))
	probeKernels(r, w.cfg.Train.BatchSize, step.density)
	if err := probeBackends(r, net, batch.X); err != nil {
		return err
	}

	fmt.Fprintf(r.log, "\nwhere a traced alg1_sweep lap goes (median of %d laps, %.3f s wall on %d workers):\n", len(stats), wall, w.cfg.Workers)
	accounted := busy/nproc + straggler
	fmt.Fprintf(r.log, "  busy/%d %.3f s + straggler %.3f s = %.3f s, %.1f%% of the lap wall\n",
		w.cfg.Workers, busy/nproc, straggler, accounted, 100*accounted/wall)
	printRanking(r, wall*nproc, trainS, gateS, attackS, snapS, straggler*nproc, step, w.cfg.AttackSteps)
	return nil
}

// printRanking lists the layers by their share of a sweep lap's CPU-time
// (lap wall × workers). The phase rows are measured spans; the rows
// under train and attack split those phases by the step probe's
// forward : backward : optimizer proportions at T = 8, so they are
// estimates and are marked as such.
func printRanking(r *tracedRun, total, trainS, gateS, attackS, snapS, idleS float64, step stepProbe, pgdSteps int) {
	type row struct {
		name  string
		secs  float64
		exact bool
	}
	opt := r.values["train.optimizer_ms"]
	fwd, bwd := step.forwardMS, step.backwardMS
	synapse := fwd - step.encodeMS - step.lifMS
	trainStep := fwd + bwd + opt
	// One PGD-k evaluation of a batch is k forward+backward steps plus
	// two tape-paying evaluation forwards.
	k := float64(pgdSteps)
	atkBatch := k*(fwd+bwd) + 2*fwd
	rows := []row{
		{"explore gate: train.EvaluateOn (measured once; a traced lap runs it twice)", 2 * gateS, true},
		{"modelio snapshot round trip (measured, traced laps only)", snapS, true},
		{"explore idle: workers waiting for the last point (measured)", idleS, true},
		{"train: autodiff backward", trainS * bwd / trainStep, false},
		{"train: snn synapses (conv, matmul, pool) forward", trainS * synapse / trainStep, false},
		{"train: snn LIF steps forward", trainS * step.lifMS / trainStep, false},
		{"train: snn encoder forward", trainS * step.encodeMS / trainStep, false},
		{"train: optimizer step", trainS * opt / trainStep, false},
		{"attack: PGD forward+backward steps", attackS * k * (fwd + bwd) / atkBatch, false},
		{"attack: evaluation forwards (clean + adversarial)", attackS * 2 * fwd / atkBatch, false},
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].secs > rows[j].secs })
	var sum float64
	for _, rw := range rows {
		mark := "~"
		if rw.exact {
			mark = " "
		}
		fmt.Fprintf(r.log, "  %s%5.1f%%  %7.3f s  %s\n", mark, 100*rw.secs/total, rw.secs, rw.name)
		sum += rw.secs
	}
	fmt.Fprintf(r.log, "  listed %.1f%% of lap wall × workers (~ = phase span split by probe proportions)\n", 100*sum/total)
}
