// Command snnsec is the command-line interface of the reproduction. It
// trains the paper's models, attacks them, runs the (Vth, T) exploration
// of Algorithm 1, and regenerates each figure of the evaluation.
//
// Usage:
//
//	snnsec fig1            motivational CNN-vs-SNN study (Figure 1)
//	snnsec grid            learnability + robustness heat maps (Figures 6-8)
//	snnsec grid-worker     serve one shard of a distributed grid run (internal)
//	snnsec fig9            tracked (Vth,T) combinations vs CNN (Figure 9)
//	snnsec train           train one model and save a checkpoint
//	snnsec attack          attack a saved checkpoint
//	snnsec serve           serve a checkpoint for inference
//	snnsec stream          event-driven streaming inference over rolling windows
//	snnsec info            inspect a checkpoint
//	snnsec analyze         activity / gradient-masking diagnostics vs Vth
//	snnsec version         print the library version
//
// Every subcommand accepts -h for its flags. The global flags (before
// the subcommand): -workers bounds the compute backend's kernel
// parallelism. The global environment variables SNNSEC_SCALE=paper and
// SNNSEC_MNIST_DIR=<dir> switch to the paper-scale preset and to real
// MNIST data.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	snnsec "snnsec"
	"snnsec/internal/analysis"
	"snnsec/internal/attack"
	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/explore"
	"snnsec/internal/faultinject"
	"snnsec/internal/grid"
	"snnsec/internal/modelio"
	"snnsec/internal/nn"
	"snnsec/internal/obs"
	"snnsec/internal/report"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// exitCodeError carries a specific process exit code through the error
// return of run — e.g. 3 for a serve drain that timed out with requests
// still queued, so orchestration can tell "clean stop" from "dropped
// work".
type exitCodeError struct {
	code int
	msg  string
}

func (e exitCodeError) Error() string { return e.msg }

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "snnsec:", err)
		var ec exitCodeError
		if errors.As(err, &ec) {
			os.Exit(ec.code)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	// Global flags come before the subcommand: snnsec -workers 4 grid ...
	global := flag.NewFlagSet("snnsec", flag.ContinueOnError)
	global.Usage = usage
	workers := global.Int("workers", 0,
		"compute-backend width for tensor kernels: 1 forces the serial backend, 0 uses all CPUs; "+
			"subcommands that parallelise across grid points split this budget so grid workers × kernel width ≤ the value given")
	faults := global.String("faults", "",
		"fault-injection spec for chaos testing, e.g. 'grid.worker.point@s1:2=exit;stream.window@2=panic' "+
			"(falls back to SNNSEC_FAULTS; empty disables injection)")
	faultSeed := global.Uint64("fault-seed", 0,
		"seed for probabilistic (~p) fault rules; defaults to the run seed so a chaos schedule replays deterministically")
	printVersion := global.Bool("version", false, "print version and build identity, then exit")
	if err := global.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	// The CLI is the one armed process: metric collection is a no-op for
	// library embedders and tests, live for every snnsec command.
	obs.SetVersion(snnsec.Version)
	obs.SetKernels(tensor.KernelTier())
	obs.Arm()
	if *printVersion {
		fmt.Println("snnsec", obs.BuildString())
		return nil
	}
	faultSeedSet := false
	global.Visit(func(f *flag.Flag) {
		if f.Name == "fault-seed" {
			faultSeedSet = true
		}
	})
	// Flag validation is strict: out-of-range and contradictory values are
	// errors, never silently clamped or ignored.
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *workers > 0 {
		compute.SetDefault(compute.New(*workers))
	}
	if err := faultinject.Init(*faults, *faultSeed, faultSeedSet); err != nil {
		return err
	}
	// Re-export the policy so grid-worker subprocesses inherit it (their
	// shard id is added per-process by the launcher).
	if *faults != "" {
		os.Setenv(faultinject.EnvSpec, *faults)
	}
	if faultSeedSet {
		os.Setenv(faultinject.EnvSeed, strconv.FormatUint(*faultSeed, 10))
	}
	args = global.Args()
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "fig1":
		return cmdFig1(args[1:])
	case "grid":
		return cmdGrid(args[1:])
	case "grid-worker":
		return cmdGridWorker(args[1:])
	case "fig9":
		return cmdFig9(args[1:])
	case "train":
		return cmdTrain(args[1:])
	case "attack":
		return cmdAttack(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "stream":
		return cmdStream(args[1:])
	case "info":
		return cmdInfo(args[1:])
	case "analyze":
		return cmdAnalyze(args[1:])
	case "version":
		fmt.Println("snnsec", obs.BuildString())
		return nil
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `snnsec — SNN adversarial-robustness exploration (DATE'21 reproduction)

subcommands:
  fig1     motivational CNN-vs-SNN robustness curves (Figure 1)
  grid     (Vth, T) learnability and robustness heat maps (Figures 6-8);
           -shards n distributes the sweep over grid-worker subprocesses
           with durable -checkpoint-dir checkpoints and -resume; failure
           handling is tuned by -stall-timeout (withdraw a silent
           worker's point), -max-point-retries (quarantine a poison
           point after this many retries) and -retry-backoff
  grid-worker  serve one shard of a distributed run over stdin/stdout
  fig9     tracked combinations vs the CNN (Figure 9)
  train    train a model and save a checkpoint
  attack   attack a saved checkpoint
  serve    serve a checkpoint for inference (HTTP or stdio);
           SIGTERM/SIGINT drain gracefully within -drain-timeout
           (exit 0: all accepted requests answered; exit 3: timed out
           with requests dropped); -ckpt repeats to preload the cache.
           The HTTP handler exposes Prometheus /metrics; -pprof mounts
           /debug/pprof/ and -trace file records per-request line-JSON
           trace records
  stream   event-driven streaming inference: (t,x,y,pol) events in over
           a keepalive line protocol (stdio or -addr TCP, one session
           per connection), one classification per rolling window out;
           -synth digits classifies a deterministic glyph event stream;
           -metrics addr exposes Prometheus /metrics for the sessions
  info     inspect a checkpoint
  analyze  spike-activity and gradient-masking diagnostics vs Vth
  version  print version and build identity (also: snnsec -version)

  grid, serve and stream accept -log-level (debug|info|warn|error) to
  filter their stderr output; the default (info) is unchanged from
  earlier releases. grid and stream accept -metrics addr to serve
  Prometheus /metrics on a side listener (+ -pprof for /debug/pprof/).

global flags (before the subcommand):
  -workers n   CPU budget for the tensor kernels: 1 selects the serial
               backend, 0 (default) uses every CPU. Grid sweeps (grid,
               fig9 -auto) split the same budget — one worker per
               (Vth, T) point and a kernel backend of width
               budget/gridworkers each — so grid-level × kernel-level
               parallelism never exceeds the budget.
  -faults s    deterministic fault-injection spec for chaos testing:
               'point[@occurrence]=action' rules joined by ';', where
               occurrence is N, N+, *, ~p (seeded probability) or
               s<shard>:occ, and action is delay:<dur>, error, torn,
               panic or exit. Fault points: grid.worker.point,
               grid.checkpoint.write, serve.forward, stream.window.
  -fault-seed n  seed for ~p rules (default: the run seed)
  -version     print version and build identity, then exit

environment:
  SNNSEC_SCALE=paper     use the paper-scale preset (slow)
  SNNSEC_SCALE=tiny      use the smoke-test preset (2x2 grid, seconds)
  SNNSEC_MNIST_DIR=dir   load real MNIST IDX files from dir
  SNNSEC_FAULTS=s        fault spec when -faults is not given
  SNNSEC_FAULT_SEED=n    seed when -fault-seed is not given
`)
}

func cmdFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := core.ScaleFromEnv()
	res, err := core.RunFig1(s, os.Stderr)
	if err != nil {
		return err
	}
	report.WriteCurves(os.Stdout, "Figure 1 — PGD on CNN vs SNN (default structural parameters)", []report.Series{
		{Name: "CNN", Points: res.CNN},
		{Name: fmt.Sprintf("SNN(%g,%d)", s.DefaultVth, s.DefaultT), Points: res.SNN},
	})
	if eps, ok := res.Crossover(); ok {
		fmt.Printf("crossover (paper's 'turnaround point'): eps = %g\n", eps)
	} else {
		fmt.Println("no crossover observed in this sweep")
	}
	return nil
}

func cmdGrid(args []string) error {
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	csvDir := fs.String("csv", "", "directory to write fig6/fig7/fig8 CSV files into")
	jsonPath := fs.String("json", "", "path to write the full grid result as JSON")
	shards := fs.Int("shards", 0, "distribute the sweep over this many grid-worker subprocesses (0 runs in-process)")
	ckptDir := fs.String("checkpoint-dir", "", "directory to persist per-point results (and model snapshots) for resume; requires -shards")
	resume := fs.Bool("resume", false, "resume a previous run from -checkpoint-dir, computing only the missing points")
	maxPoints := fs.Int("max-points", 0, "compute at most this many new points this invocation (0 = all); the partial result is resumable")
	stallTimeout := fs.Duration("stall-timeout", 0,
		"withdraw and reassign a point whose worker sends nothing (not even a heartbeat) for this long; 0 selects the default (2m), negative disables stall detection")
	maxRetries := fs.Int("max-point-retries", 0,
		"retries per failing point (each on a different shard) before it is quarantined and the sweep completes without it; 0 selects the default (3), negative disables retries")
	retryBackoff := fs.Duration("retry-backoff", 0,
		"delay before a failed point's first retry; the n-th retry waits backoff<<(n-1); 0 selects the default (1s)")
	logLevel := fs.String("log-level", "", "minimum stderr log level: debug, info (default), warn or error")
	metricsAddr := fs.String("metrics", "", "serve Prometheus /metrics for the sweep on this address (empty disables)")
	pprofOn := fs.Bool("pprof", false, "also mount /debug/pprof/ on the -metrics listener")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("grid: -shards must be >= 0, got %d", *shards)
	}
	if *maxPoints < 0 {
		return fmt.Errorf("grid: -max-points must be >= 0, got %d", *maxPoints)
	}
	lg, err := stderrLogger(*logLevel)
	if err != nil {
		return err
	}
	stopMetrics, err := startMetricsServer(*metricsAddr, *pprofOn, lg)
	if err != nil {
		return err
	}
	defer stopMetrics()
	s := core.ScaleFromEnv()
	var res *explore.Result
	if *shards > 0 {
		res, err = runDistributedGrid(s, gridRunOptions{
			shards: *shards, ckptDir: *ckptDir, resume: *resume, maxPoints: *maxPoints,
			stallTimeout: *stallTimeout, maxRetries: *maxRetries, retryBackoff: *retryBackoff,
			logger: lg,
		})
	} else {
		if *ckptDir != "" || *resume || *maxPoints > 0 {
			return fmt.Errorf("grid: -checkpoint-dir/-resume/-max-points require -shards")
		}
		if *stallTimeout != 0 || *maxRetries != 0 || *retryBackoff != 0 {
			return fmt.Errorf("grid: -stall-timeout/-max-point-retries/-retry-backoff require -shards")
		}
		// The in-process sweep logs free-form progress; honour the level
		// by silencing it entirely below info.
		progress := io.Writer(os.Stderr)
		if !lg.Enabled(obs.LevelInfo) {
			progress = io.Discard
		}
		res, err = core.RunGrid(s, progress)
	}
	if err != nil {
		return err
	}
	if missing := res.MissingIndices(); len(missing) > 0 {
		lg.Warnf("grid: partial result, %d/%d points computed (resume with -resume -checkpoint-dir to finish)",
			len(res.Points)-len(missing), len(res.Points))
	}
	if *jsonPath != "" {
		if err := res.SaveJSON(*jsonPath); err != nil {
			return err
		}
		lg.Infof("wrote grid result to %s", *jsonPath)
	}
	acc := report.AccuracyGrid(res)
	acc.WriteASCII(os.Stdout)
	fmt.Println()
	grids := []*report.Grid{acc}
	names := []string{"fig6_accuracy.csv"}
	for i, eps := range s.HeatmapEpsilons {
		g := report.RobustnessGrid(res, eps)
		g.WriteASCII(os.Stdout)
		fmt.Println()
		grids = append(grids, g)
		names = append(names, fmt.Sprintf("fig%d_robustness_eps%g.csv", 7+i, eps))
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for i, g := range grids {
			f, err := os.Create(*csvDir + "/" + names[i])
			if err != nil {
				return err
			}
			g.WriteCSV(f)
			if err := f.Close(); err != nil {
				return err
			}
		}
		lg.Infof("wrote %d CSV files to %s", len(grids), *csvDir)
	}
	return nil
}

// gridRunOptions carries the distributed-grid flag values.
type gridRunOptions struct {
	shards       int
	ckptDir      string
	resume       bool
	maxPoints    int
	stallTimeout time.Duration
	maxRetries   int
	retryBackoff time.Duration
	logger       *obs.Logger
}

// runDistributedGrid shards the sweep across local grid-worker
// subprocesses (the binary re-executes itself), splitting the global
// -workers CPU budget across them.
func runDistributedGrid(s core.Scale, o gridRunOptions) (*explore.Result, error) {
	spec, err := s.GridSpec()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("grid: locating own binary to spawn workers: %w", err)
	}
	return grid.Run(context.Background(), spec, grid.Options{
		Shards:          o.shards,
		CheckpointDir:   o.ckptDir,
		Resume:          o.resume,
		SnapshotModels:  o.ckptDir != "",
		MaxPoints:       o.maxPoints,
		StallTimeout:    o.stallTimeout,
		MaxPointRetries: o.maxRetries,
		RetryBackoff:    o.retryBackoff,
		Launch:          grid.ExecLauncher(self, "grid-worker"),
		Logger:          o.logger,
	})
}

// cmdGridWorker serves one shard of a distributed grid run over
// stdin/stdout; it is spawned by snnsec grid -shards (or by a remote
// launch wrapper) and never invoked by hand.
func cmdGridWorker(args []string) error {
	fs := flag.NewFlagSet("grid-worker", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return grid.ServeWorker(os.Stdin, os.Stdout)
}

func cmdFig9(args []string) error {
	fs := flag.NewFlagSet("fig9", flag.ContinueOnError)
	auto := fs.Bool("auto", false, "run the grid first and track its best/worst/medium points")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := core.ScaleFromEnv()
	var res *core.Fig9Result
	var err error
	if *auto {
		grid, gerr := core.RunGrid(s, os.Stderr)
		if gerr != nil {
			return gerr
		}
		res, err = core.RunFig9(s, core.SelectFig9Combos(grid), os.Stderr)
	} else {
		res, err = core.RunFig9(s, nil, os.Stderr)
	}
	if err != nil {
		return err
	}
	series := []report.Series{{Name: "CNN", Points: res.CNN}}
	for _, c := range res.Combos {
		series = append(series, report.Series{
			Name:   fmt.Sprintf("SNN(%g,%d)", c.Vth, c.T),
			Points: c.Curve,
		})
	}
	report.WriteCurves(os.Stdout, "Figure 9 — tracked (Vth, T) combinations vs CNN under PGD", series)
	fmt.Printf("max robustness gap over CNN: %.3f (paper reports up to 0.85)\n", res.MaxGapOverCNN())
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	model := fs.String("model", "snn", "model kind: cnn or snn")
	vth := fs.Float64("vth", 1, "SNN firing threshold")
	T := fs.Int("T", 12, "SNN time window")
	out := fs.String("out", "", "checkpoint output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := core.ScaleFromEnv()
	trainDS, testDS, err := core.LoadData(s.Data)
	if err != nil {
		return err
	}
	var params []*nn.Param
	var acc float64
	meta := map[string]string{"scale": s.Name, "model": *model}
	switch *model {
	case "cnn":
		var cnn *nn.Sequential
		cnn, acc, err = s.TrainCNN(trainDS, testDS)
		if err != nil {
			return err
		}
		params = cnn.Params()
	case "snn":
		net, netAcc, nerr := s.TrainSNN(*vth, *T, trainDS, testDS)
		if nerr != nil {
			return nerr
		}
		acc = netAcc
		params = net.Params()
		meta["vth"] = strconv.FormatFloat(*vth, 'g', -1, 64)
		meta["T"] = strconv.Itoa(*T)
	default:
		return fmt.Errorf("unknown model kind %q", *model)
	}
	meta["test_accuracy"] = strconv.FormatFloat(acc, 'f', 4, 64)
	fmt.Printf("trained %s: test accuracy %.4f\n", *model, acc)
	if *out != "" {
		if err := modelio.SaveFile(*out, meta, params); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", *out)
	}
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	ckpt := fs.String("ckpt", "", "checkpoint path (required)")
	kind := fs.String("attack", "pgd", "attack kind: pgd, fgsm, gaussian")
	epsList := fs.String("eps", "0.5,1.0,1.5", "comma-separated noise budgets")
	steps := fs.Int("steps", 10, "PGD iterations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckpt == "" {
		return fmt.Errorf("attack: -ckpt is required")
	}
	if *steps < 0 {
		return fmt.Errorf("attack: -steps must be non-negative, got %d", *steps)
	}
	var epsilons []float64
	for _, part := range strings.Split(*epsList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("attack: bad eps %q", part)
		}
		if err := attack.CheckEps(v); err != nil {
			return fmt.Errorf("attack: -eps: %w", err)
		}
		epsilons = append(epsilons, v)
	}
	m, err := modelio.LoadFile(*ckpt)
	if err != nil {
		return err
	}
	s := core.ScaleFromEnv()
	_, testDS, err := core.LoadData(s.Data)
	if err != nil {
		return err
	}
	victim, _, err := core.BuildFromCheckpoint(s, m)
	if err != nil {
		return err
	}
	bounds := attack.DatasetBounds(testDS)
	// PGD is the point attack: an SNN's (Vth, T) point, the default point
	// for the CNN.
	cfg, idx := s.Point(s.DefaultVth, s.DefaultT)
	if net, ok := victim.(*snn.Network); ok {
		cfg, idx = s.Point(net.ReadoutCfg.Vth, net.T)
	}
	cfg.AttackSteps = *steps
	pgd := cfg.PGD(idx, nil, bounds)
	for _, eps := range epsilons {
		var atk attack.Attack
		switch *kind {
		case "pgd":
			atk = pgd(eps)
		case "fgsm":
			atk = attack.FGSM{Eps: eps, Bounds: bounds}
		case "gaussian":
			atk = attack.GaussianNoise{Std: eps, Rand: tensor.NewRand(1, 1), Bounds: bounds}
		default:
			return fmt.Errorf("unknown attack %q", *kind)
		}
		ev := attack.Evaluate(victim, testDS, atk, s.EvalBatch)
		fmt.Println(ev.String())
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info: usage: snnsec info <checkpoint>")
	}
	m, err := modelio.LoadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Println("metadata:")
	for k, v := range m.Meta {
		fmt.Printf("  %s = %s\n", k, v)
	}
	total := 0
	fmt.Println("parameters:")
	for _, p := range m.Params {
		fmt.Printf("  %-24s %v (%d)\n", p.Name, p.Data.Shape(), p.Data.Len())
		total += p.Data.Len()
	}
	fmt.Printf("total: %d parameters\n", total)
	return nil
}

// cmdAnalyze trains one SNN and reports how its spiking activity and
// white-box attack surface change when the inference threshold is swept —
// the mechanism behind the paper's (Vth, T) robustness dependence.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	vth := fs.Float64("vth", 1, "training threshold")
	T := fs.Int("T", 12, "time window")
	sweep := fs.String("sweep", "0.25,0.5,1,1.5,2.25", "comma-separated inference thresholds to probe")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Check the sweep before training: a bad threshold must not cost a
	// training run first.
	var vths []float64
	for _, part := range strings.Split(*sweep, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("analyze: -sweep: bad threshold %q", part)
		}
		if err := snn.CheckVth(v); err != nil {
			return fmt.Errorf("analyze: -sweep: %w", err)
		}
		vths = append(vths, v)
	}
	s := core.ScaleFromEnv()
	trainDS, testDS, err := core.LoadData(s.Data)
	if err != nil {
		return err
	}
	net, acc, err := s.TrainSNN(*vth, *T, trainDS, testDS)
	if err != nil {
		return err
	}
	fmt.Printf("SNN(Vth=%g, T=%d) clean accuracy %.3f\n\n", *vth, *T, acc)
	rows := analysis.SweepVth(net, testDS, vths, s.EvalBatch)
	analysis.WriteVthSweep(os.Stdout, rows)
	return nil
}
