package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/explore"
	"snnsec/internal/nn"
	"snnsec/internal/obs"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// testJobSpec parameterises testBuild. Everything the job needs travels
// through it, exactly like a real distributed spec.
type testJobSpec struct {
	ImageSize int       `json:"image_size"`
	TrainN    int       `json:"train_n"`
	TestN     int       `json:"test_n"`
	Vths      []float64 `json:"vths"`
	Ts        []int     `json:"ts"`
}

// testBuild is the tests' BuildJob: the coordinator and the in-process
// workers both rebuild the job with it, as the CLI's do with core's.
func testBuild(raw json.RawMessage) (Job, error) {
	var js testJobSpec
	if err := json.Unmarshal(raw, &js); err != nil {
		return Job{}, err
	}
	mk := func(n int, seed uint64) (*dataset.Dataset, error) {
		sc := dataset.DefaultSynthConfig(n, seed)
		sc.Size = js.ImageSize
		d, err := dataset.SynthDigits(sc)
		if err != nil {
			return nil, err
		}
		d.Normalize()
		return d, nil
	}
	cfg := explore.Config{
		Vths:     js.Vths,
		Ts:       js.Ts,
		Epsilons: []float64{0.5, 1.5},
		// The distribution tests check wire and checkpoint formats,
		// not learnability, so the gate is out: every point that
		// classifies one test image passes (explore reads 0 as its
		// default gate, 0.70), and every point carries a robustness
		// curve through the formats. Fifteen epochs of Adam at 3e-3
		// on a 64-wide hidden layer put the clean accuracies at
		// 0.233–0.433 with the spike-count readout, 7–13 of the 30
		// images. The gate's own behaviour is pinned by explore's
		// TestRunGridShapeAndGate, and the non-learnable wire path by
		// the hand-written learnable:false records below.
		AccuracyThreshold: math.SmallestNonzeroFloat64,
		Train: train.Config{
			Epochs:    15,
			BatchSize: 20,
			GradClip:  5,
			Shuffle:   tensor.NewRand(7, 7), // per-point stream derived by explore
		},
		NewOptimizer: func() train.Optimizer { return train.NewAdam(3e-3) },
		AttackSteps:  2,
		EvalBatch:    32,
		Seed:         3,
		Build: func(vth float64, T int) (*snn.Network, error) {
			r := tensor.NewRand(11, 0)
			ncfg := snn.NeuronConfig{Vth: vth, Alpha: 0.9, Surrogate: snn.FastSigmoid{Beta: 10}}
			return &snn.Network{
				Encoder: snn.ConstantCurrentEncoder{Gain: 1},
				Hidden: []snn.Layer{
					{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, js.ImageSize*js.ImageSize, 64)), Cfg: ncfg},
				},
				Readout:    nn.NewLinear(r, 64, 10),
				ReadoutCfg: ncfg,
				T:          T,
				LogitScale: 10,
			}, nil
		},
	}
	return Job{
		Config: cfg,
		Data: func() (*dataset.Dataset, *dataset.Dataset, error) {
			trainDS, err := mk(js.TrainN, 1)
			if err != nil {
				return nil, nil, err
			}
			testDS, err := mk(js.TestN, 2)
			if err != nil {
				return nil, nil, err
			}
			return trainDS, testDS, nil
		},
	}, nil
}

func testSpec(t *testing.T) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(testJobSpec{
		ImageSize: 12, TrainN: 80, TestN: 30,
		Vths: []float64{0.5, 1}, Ts: []int{2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// singleProcessJSON runs the same job with the in-process explore.Run
// and returns its serialised result — the bit-identity baseline. Every
// point of the baseline must be learnable and carry a robust accuracy
// per ε, or a test comparing against it does not see every point's
// attack result cross the wire.
func singleProcessJSON(t *testing.T, spec json.RawMessage) []byte {
	t.Helper()
	job, err := testBuild(spec)
	if err != nil {
		t.Fatal(err)
	}
	trainDS, testDS, err := job.Data()
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.Run(job.Config, trainDS, testDS)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if !p.Learnable || len(p.Robustness) != len(job.Config.Epsilons) {
			t.Fatalf("point (Vth %g, T %d, clean %g) is learnable=%v with %d robustness entries for %d ε", p.Vth, p.T, p.CleanAccuracy, p.Learnable, len(p.Robustness), len(job.Config.Epsilons))
		}
	}
	return resultJSON(t, res)
}

func resultJSON(t *testing.T, res *explore.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ---------------------------------------------------------------------------
// Faulty workers

// dieAfterReader crashes a worker: it delivers n point assignments and
// then reports EOF instead of the (n+1)-th, so the worker dies with that
// point in flight at the coordinator.
type dieAfterReader struct {
	r          io.Reader
	pointsLeft int
}

func (d *dieAfterReader) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	if err != nil {
		return n, err
	}
	if bytes.Contains(p[:n], []byte(`"type":"point"`)) {
		if d.pointsLeft == 0 {
			return 0, io.EOF
		}
		d.pointsLeft--
	}
	return n, err
}

// crashingLauncher makes the given shard die after serving n points;
// other shards run normally.
func crashingLauncher(crashShard, n int) Launcher {
	healthy := inProcess(testBuild)
	return func(shard int) (Transport, error) {
		if shard != crashShard {
			return healthy(shard)
		}
		return goWorker(func(r io.Reader, w io.Writer) error {
			return ServeWorker(testBuild, &dieAfterReader{r: r, pointsLeft: n}, w)
		}), nil
	}
}

// ---------------------------------------------------------------------------
// End-to-end distribution tests

func TestDistributedMatchesSingleProcess(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	res, err := Run(context.Background(), testBuild, spec, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("2-shard result differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
}

// TestInProcessDefault pins the options the CLI's single-process sweep
// uses: a nil Launch runs the shards as goroutines, and Shards 0 takes
// explore's worker count — the CPU budget clamped to the grid, here a
// 4-wide budget over 4 points. The merge is byte-equal to explore.Run,
// and the four shards share one load of the datasets.
func TestInProcessDefault(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	compute.SetDefault(compute.New(4))
	t.Cleanup(func() { compute.SetDefault(nil) })
	var loads atomic.Int32
	build := func(raw json.RawMessage) (Job, error) {
		job, err := testBuild(raw)
		load := job.Data
		job.Data = func() (*dataset.Dataset, *dataset.Dataset, error) {
			loads.Add(1)
			return load()
		}
		return job, err
	}
	var log syncBuffer
	res, err := Run(context.Background(), build, spec, Options{Logger: obs.NewLogger(&log, obs.LevelInfo)})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("in-process result differs from explore.Run:\n got: %s\nwant: %s", got, want)
	}
	if !strings.Contains(log.String(), "over 4 shards, 1 kernel workers each") {
		t.Errorf("Shards 0 did not select 4 shards of width 1:\n%s", log.String())
	}
	if n := loads.Load(); n != 1 {
		t.Errorf("datasets loaded %d times, want once for the whole run", n)
	}
}

func TestCrashedWorkerPointsReassigned(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	// Shard 1 dies with a point in flight; shard 0 must absorb its block.
	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 2,
		Launch: crashingLauncher(1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("result after crash reassignment differs from single-process run")
	}
}

func TestAllWorkersDeadFails(t *testing.T) {
	spec := testSpec(t)
	_, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 1,
		Launch: crashingLauncher(0, 0),
	})
	if err == nil {
		t.Fatal("run with no surviving workers succeeded")
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	dir := filepath.Join(t.TempDir(), "ckpt")

	// Phase 1: compute two points, then stop (the budgeted form of a
	// killed run — every completed point is already durable).
	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards:        2,
		CheckpointDir: dir,
		MaxPoints:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if missing := res.MissingIndices(); len(missing) != 2 {
		t.Fatalf("partial run left %d missing points, want 2", len(missing))
	}

	// Phase 2: resume from the checkpoint and finish.
	res, err = Run(context.Background(), testBuild, spec, Options{
		Shards:        2,
		CheckpointDir: dir,
		Resume:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
}

func TestKilledRunResumes(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	dir := filepath.Join(t.TempDir(), "ckpt")

	// Kill the coordinator after the first checkpointed point: cancel the
	// context from the progress log, which fires inside record() — points
	// may still land while the cancellation propagates, exactly like a
	// real kill arriving mid-write.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, testBuild, spec, Options{
		Shards:        2,
		CheckpointDir: dir,
		Logger:        obs.NewLogger(cancelOnFirstPoint{cancel: cancel}, obs.LevelInfo),
	})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}

	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards:        2,
		CheckpointDir: dir,
		Resume:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("kill-and-resume result differs from single-process run")
	}
}

// cancelOnFirstPoint cancels the run the first time a completed point is
// logged.
type cancelOnFirstPoint struct{ cancel context.CancelFunc }

func (c cancelOnFirstPoint) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("done on shard")) {
		c.cancel()
	}
	return len(p), nil
}

// TestModelSnapshotsWritten pins that a checkpoint directory alone
// asks for model snapshots: every trained point leaves a
// model-NNNNN.snn file beside its point file.
func TestModelSnapshotsWritten(t *testing.T) {
	spec := testSpec(t)
	dir := filepath.Join(t.TempDir(), "ckpt")
	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards:        2,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	snapshots := 0
	for i := range res.Points {
		if res.Points[i].Err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, modelFile(i))); err != nil {
			t.Errorf("point %d has no model snapshot: %v", i, err)
			continue
		}
		snapshots++
	}
	if snapshots == 0 {
		t.Error("no point left a model snapshot")
	}
}

func TestCheckpointGuards(t *testing.T) {
	spec := testSpec(t)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 1, CheckpointDir: dir, MaxPoints: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Same directory without resume must be refused.
	if _, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 1, CheckpointDir: dir,
	}); err == nil {
		t.Error("existing checkpoint reused without resume")
	}
	// A different job must be refused even with resume.
	other, err := json.Marshal(testJobSpec{ImageSize: 12, TrainN: 60, TestN: 30, Vths: []float64{0.5}, Ts: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), testBuild, other, Options{
		Shards: 1, CheckpointDir: dir, Resume: true,
	}); err == nil || !strings.Contains(err.Error(), "different job") {
		t.Errorf("checkpoint of a different job not refused as such: %v", err)
	}
	// A directory written by an older format (version 2 carried the
	// builder name in the manifest and the fingerprint) must be refused
	// by the version check, not misreported as a different job.
	old := t.TempDir()
	v2 := `{"version":2,"builder":"scale","fingerprint":"0123456789abcdef","vths":[0.5,1],"ts":[2,3],"epsilons":[0.5,1.5]}`
	if err := os.WriteFile(filepath.Join(old, manifestName), []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 1, CheckpointDir: old, Resume: true,
	}); err == nil || !strings.Contains(err.Error(), "format version 2, this build writes 3") {
		t.Errorf("version-2 checkpoint not refused by the format check: %v", err)
	}
}

// scriptedWorkerLauncher speaks the worker protocol but answers its
// first assignment with the given point JSON instead of computing it,
// then hangs up.
func scriptedWorkerLauncher(point string) Launcher {
	return func(shard int) (Transport, error) {
		return goWorker(func(r io.Reader, w io.Writer) error {
			c := newConn(struct {
				io.Reader
				io.Writer
			}{r, w})
			if _, err := c.recv(); err != nil { // hello
				return err
			}
			if err := c.send(message{Type: msgReady}); err != nil {
				return err
			}
			m, err := c.recv()
			if err != nil || m.Type != msgPoint {
				return err
			}
			_, err = fmt.Fprintf(w, `{"type":"point_done","index":%d,"point":%s}`+"\n", m.Index, point)
			return err
		}), nil
	}
}

// TestPointMergedOnlyIntoItsCell pins that a point lands at a grid index
// only when its (Vth, T) is the cell the index names. The test grid is
// Vths {0.5, 1} × Ts {2, 3}, T-major: index 0 is (0.5, 2), index 3 is
// (1, 3). A worker answering its assignment with another cell's point
// is fatal; a checkpoint file holding another cell's point — here two
// files swapped — is quarantined and its point recomputed.
func TestPointMergedOnlyIntoItsCell(t *testing.T) {
	spec := testSpec(t)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"worker reply", func(t *testing.T) {
			// One shard: its first assignment is index 0.
			wrong := `{"vth":1,"t":3,"clean_accuracy":0.5,"learnable":false}`
			_, err := Run(context.Background(), testBuild, spec, Options{Shards: 1, Launch: scriptedWorkerLauncher(wrong)})
			if err == nil || !strings.Contains(err.Error(), "wrong cell") || !strings.Contains(err.Error(), "(Vth=1, T=3)") {
				t.Fatalf("a point for another cell was not refused: %v", err)
			}
		}},
		{"checkpoint file", func(t *testing.T) {
			want := singleProcessJSON(t, spec)
			dir := t.TempDir()
			if _, err := Run(context.Background(), testBuild, spec, Options{
				Shards: 1, CheckpointDir: dir,
			}); err != nil {
				t.Fatal(err)
			}
			a, b := filepath.Join(dir, pointFile(0)), filepath.Join(dir, pointFile(3))
			for _, mv := range [][2]string{{a, a + ".swap"}, {b, a}, {a + ".swap", b}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
			var log syncBuffer
			res, err := Run(context.Background(), testBuild, spec, Options{
				Shards: 1, CheckpointDir: dir, Resume: true,
				Logger: obs.NewLogger(&log, obs.LevelInfo),
			})
			if err != nil {
				t.Fatalf("resume over swapped files failed: %v\n%s", err, log.String())
			}
			if got := resultJSON(t, res); !bytes.Equal(got, want) {
				t.Errorf("resumed result differs from single-process run:\n got: %s\nwant: %s", got, want)
			}
			for _, idx := range []int{0, 3} {
				if _, err := os.Stat(filepath.Join(dir, pointFile(idx)+".corrupt")); err != nil {
					t.Errorf("point %d: no quarantine file: %v", idx, err)
				}
			}
			if !strings.Contains(log.String(), "quarantined 2 corrupt checkpoint file(s)") {
				t.Errorf("log does not report the quarantine:\n%s", log.String())
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

func TestSpecFingerprintIgnoresWhitespace(t *testing.T) {
	a := fingerprint(json.RawMessage(`{"x": 1,  "y": [2]}`))
	b := fingerprint(json.RawMessage(`{"x":1,"y":[2]}`))
	if a != b {
		t.Error("fingerprint depends on JSON whitespace")
	}
	if c := fingerprint(json.RawMessage(`{"x":2,"y":[2]}`)); a == c {
		t.Error("fingerprint ignores config changes")
	}
}

func TestOptionsRequireCheckpointDir(t *testing.T) {
	spec := testSpec(t)
	if _, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 1, Resume: true,
	}); err == nil {
		t.Error("Resume without CheckpointDir accepted — a forgotten -checkpoint-dir would silently recompute the whole sweep")
	}
	if _, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 1, MaxPoints: 1,
	}); err == nil {
		t.Error("MaxPoints without CheckpointDir accepted — the partial result would not be resumable")
	}
}

// ---------------------------------------------------------------------------
// Scheduler unit tests

func TestSchedulerStaticBlocks(t *testing.T) {
	s := newScheduler([]int{0, 1, 2, 3, 4}, 2, 0, 3, 0)
	// The points are dealt round-robin: shard 0 owns {0,2,4}, shard 1
	// owns {1,3}, so neither block holds only the grid's last (longest-T)
	// points.
	if !slices.Equal(s.queues[0], []int{0, 2, 4}) || !slices.Equal(s.queues[1], []int{1, 3}) {
		t.Fatalf("blocks = %v, want [[0 2 4] [1 3]]", s.queues)
	}
	if idx, ok := s.next(1); !ok || idx != 1 {
		t.Fatalf("shard 1 first point = %d, want 1", idx)
	}
	if idx, ok := s.next(0); !ok || idx != 0 {
		t.Fatalf("shard 0 first point = %d, want 0", idx)
	}
}

func TestSchedulerStealsFromRichest(t *testing.T) {
	s := newScheduler([]int{0, 1, 2, 3, 4, 5}, 3, 0, 3, 0)
	// Drain shard 2's block {2,5}.
	s.next(2)
	s.next(2)
	s.complete()
	s.complete()
	// Next call steals from the back of the richest block — shard 0's
	// {0,3} and shard 1's {1,4} tie at 2; the first richest wins, tail
	// first.
	if idx, ok := s.next(2); !ok || idx != 3 {
		t.Fatalf("steal = %d, want 3 (tail of shard 0's block)", idx)
	}
}

func TestSchedulerRetryAndBudget(t *testing.T) {
	s := newScheduler([]int{0, 1, 2}, 1, 2, 3, 0)
	i0, _ := s.next(0)
	if i0 != 0 {
		t.Fatalf("first point = %d, want 0", i0)
	}
	// The failed assignment refunds the budget, so two fresh assignments
	// still fit the allowance of 2; the retried point itself lands at the
	// back of the queue and is the one the budget then excludes.
	if n, q := s.fail(0, i0); q || n != 1 {
		t.Fatalf("fail = (%d, %v), want first retry", n, q)
	}
	if idx, ok := s.next(0); !ok || idx != 1 {
		t.Fatalf("second point = %d, want 1", idx)
	}
	s.complete()
	if idx, ok := s.next(0); !ok || idx != 2 {
		t.Fatalf("third point = %v, want 2", idx)
	}
	s.complete()
	if _, ok := s.next(0); ok {
		t.Fatal("assignment beyond MaxPoints budget")
	}
	if !s.budgetExhausted() {
		t.Error("budget not reported exhausted")
	}
	// The retried point is still pending (queued or parked in backoff).
	if s.pendingCount() != 1 {
		t.Errorf("pendingCount = %d, want 1", s.pendingCount())
	}
}

func TestSchedulerBlocksUntilInflightLands(t *testing.T) {
	s := newScheduler([]int{0, 1}, 2, 0, 3, 0)
	if _, ok := s.next(0); !ok {
		t.Fatal("shard 0 got no point")
	}
	got := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.next(1) // takes shard 1's own point
		s.complete()
		// Shard 1 is now idle but shard 0's point is in flight: this call
		// must block until the fail below requeues it, then reacquire it.
		if idx, ok := s.next(1); ok {
			got <- idx
		}
	}()
	s.fail(0, 0)
	wg.Wait()
	select {
	case idx := <-got:
		if idx != 0 {
			t.Errorf("reassigned point = %d, want 0", idx)
		}
	default:
		t.Error("idle shard did not pick up the requeued point")
	}
}

func TestSchedulerQuarantinesPoisonPoint(t *testing.T) {
	// One poison point, two shards, two retries allowed. Whichever queue
	// each retry targets, shard 0 steals it back — next blocks while the
	// zero-backoff requeue is in flight, so the loop is deterministic.
	s := newScheduler([]int{0}, 2, 0, 2, 0)
	for attempt := 1; ; attempt++ {
		idx, ok := s.next(0)
		if !ok {
			t.Fatal("scheduler refused the retry")
		}
		if idx != 0 {
			t.Fatalf("drew point %d, want 0", idx)
		}
		n, quarantined := s.fail(0, idx)
		if quarantined {
			if n != 3 {
				t.Fatalf("quarantined after %d failed attempts, want 3 (initial + 2 retries)", n)
			}
			break
		}
		if attempt > 5 {
			t.Fatal("poison point never quarantined")
		}
	}
	if q := s.quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("quarantined = %v, want [0]", q)
	}
	// The poison point is abandoned, not pending: the sweep finishes.
	if _, ok := s.next(0); ok {
		t.Fatal("scheduler handed out a quarantined point")
	}
	if s.pendingCount() != 0 {
		t.Errorf("pendingCount = %d, want 0 (quarantined points are abandoned)", s.pendingCount())
	}
}

func TestSchedulerRetryTargetsOtherShard(t *testing.T) {
	s := newScheduler([]int{0, 1, 2, 3}, 2, 0, 3, 0)
	idx, _ := s.next(0) // shard 0's first point
	s.fail(0, idx)
	// Zero backoff: the requeue lands (asynchronously) on shard 1's queue.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		q := append([]int(nil), s.queues[1]...)
		s.mu.Unlock()
		if len(q) == 3 && q[2] == idx {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry of point %d never reached shard 1's queue (queue %v)", idx, q)
		}
		time.Sleep(time.Millisecond)
	}
}
