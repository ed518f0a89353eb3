package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"snnsec/internal/dataset"
	"snnsec/internal/explore"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// testJobSpec parameterises the registered test builder. Everything the
// job needs travels through it, exactly like a real distributed spec.
type testJobSpec struct {
	ImageSize int       `json:"image_size"`
	TrainN    int       `json:"train_n"`
	TestN     int       `json:"test_n"`
	Vths      []float64 `json:"vths"`
	Ts        []int     `json:"ts"`
}

func init() {
	Register("grid-test", func(raw json.RawMessage) (Job, error) {
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
			Vths:              js.Vths,
			Ts:                js.Ts,
			Epsilons:          []float64{0.5, 1.5},
			AccuracyThreshold: 0.4,
			// Fifteen epochs of Adam at 3e-3 on a 64-wide hidden layer
			// make two of the four test points pass the gate with the
			// spike-count readout (clean 0.433 at T = 3, 0.233–0.267 at
			// T = 2), so the distribution tests carry robustness curves
			// through the wire and checkpoint formats, not only clean
			// accuracies.
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
	})
}

func testSpec(t *testing.T) Spec {
	t.Helper()
	raw, err := json.Marshal(testJobSpec{
		ImageSize: 12, TrainN: 80, TestN: 30,
		Vths: []float64{0.5, 1}, Ts: []int{2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Builder: "grid-test", Config: raw}
}

// singleProcessJSON runs the same job with the in-process explore.Run
// and returns its serialised result — the bit-identity baseline. The
// baseline must hold at least one learnable point with a robust
// accuracy per ε, or a test comparing against it never sees an attack
// result cross the wire.
func singleProcessJSON(t *testing.T, spec Spec) []byte {
	t.Helper()
	job, err := spec.Build()
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
	if res.LearnableCount() == 0 {
		t.Fatal("no test point passes the learnability gate")
	}
	for _, p := range res.Points {
		if p.Learnable && len(p.Robustness) != len(job.Config.Epsilons) {
			t.Fatalf("learnable point (Vth %g, T %d) has %d robustness entries for %d ε", p.Vth, p.T, len(p.Robustness), len(job.Config.Epsilons))
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
// In-process transports

// pipeTransport is the coordinator's end of an in-process worker.
type pipeTransport struct {
	r    *io.PipeReader
	w    *io.PipeWriter
	once sync.Once
}

func (p *pipeTransport) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p *pipeTransport) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *pipeTransport) Close() error {
	p.once.Do(func() {
		p.w.Close()
		p.r.Close()
	})
	return nil
}

// inProcLauncher runs ServeWorker on a goroutine per shard, connected by
// pipes — the protocol without the subprocess.
func inProcLauncher() Launcher {
	return func(shard int) (Transport, error) {
		toWorkerR, toWorkerW := io.Pipe()
		fromWorkerR, fromWorkerW := io.Pipe()
		go func() {
			_ = ServeWorker(toWorkerR, fromWorkerW)
			fromWorkerW.Close()
		}()
		return &pipeTransport{r: fromWorkerR, w: toWorkerW}, nil
	}
}

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
	healthy := inProcLauncher()
	return func(shard int) (Transport, error) {
		if shard != crashShard {
			return healthy(shard)
		}
		toWorkerR, toWorkerW := io.Pipe()
		fromWorkerR, fromWorkerW := io.Pipe()
		go func() {
			_ = ServeWorker(&dieAfterReader{r: toWorkerR, pointsLeft: n}, fromWorkerW)
			fromWorkerW.Close()
		}()
		return &pipeTransport{r: fromWorkerR, w: toWorkerW}, nil
	}
}

// ---------------------------------------------------------------------------
// End-to-end distribution tests

func TestDistributedMatchesSingleProcess(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	res, err := Run(context.Background(), spec, Options{
		Shards: 2,
		Launch: inProcLauncher(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("2-shard result differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
}

func TestCrashedWorkerPointsReassigned(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	// Shard 1 dies with a point in flight; shard 0 must absorb its block.
	res, err := Run(context.Background(), spec, Options{
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
	_, err := Run(context.Background(), spec, Options{
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
	res, err := Run(context.Background(), spec, Options{
		Shards:        2,
		CheckpointDir: dir,
		MaxPoints:     2,
		Launch:        inProcLauncher(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if missing := res.MissingIndices(); len(missing) != 2 {
		t.Fatalf("partial run left %d missing points, want 2", len(missing))
	}

	// Phase 2: resume from the checkpoint and finish.
	res, err = Run(context.Background(), spec, Options{
		Shards:        2,
		CheckpointDir: dir,
		Resume:        true,
		Launch:        inProcLauncher(),
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
	_, err := Run(ctx, spec, Options{
		Shards:        2,
		CheckpointDir: dir,
		Launch:        inProcLauncher(),
		Log:           cancelOnFirstPoint{cancel: cancel},
	})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}

	res, err := Run(context.Background(), spec, Options{
		Shards:        2,
		CheckpointDir: dir,
		Resume:        true,
		Launch:        inProcLauncher(),
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

func TestModelSnapshotsWritten(t *testing.T) {
	spec := testSpec(t)
	dir := filepath.Join(t.TempDir(), "ckpt")
	res, err := Run(context.Background(), spec, Options{
		Shards:         2,
		CheckpointDir:  dir,
		SnapshotModels: true,
		Launch:         inProcLauncher(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		if res.Points[i].Err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, modelFile(i))); err != nil {
			t.Errorf("point %d has no model snapshot: %v", i, err)
		}
	}
}

func TestCheckpointGuards(t *testing.T) {
	spec := testSpec(t)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := Run(context.Background(), spec, Options{
		Shards: 1, CheckpointDir: dir, MaxPoints: 1, Launch: inProcLauncher(),
	}); err != nil {
		t.Fatal(err)
	}
	// Same directory without resume must be refused.
	if _, err := Run(context.Background(), spec, Options{
		Shards: 1, CheckpointDir: dir, Launch: inProcLauncher(),
	}); err == nil {
		t.Error("existing checkpoint reused without resume")
	}
	// A different job must be refused even with resume.
	other, err := json.Marshal(testJobSpec{ImageSize: 12, TrainN: 60, TestN: 30, Vths: []float64{0.5}, Ts: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Spec{Builder: "grid-test", Config: other}, Options{
		Shards: 1, CheckpointDir: dir, Resume: true, Launch: inProcLauncher(),
	}); err == nil {
		t.Error("checkpoint of a different job accepted")
	}
}

// scriptedWorkerLauncher speaks the worker protocol but answers its
// first assignment with the given point JSON instead of computing it,
// then hangs up.
func scriptedWorkerLauncher(point string) Launcher {
	return func(shard int) (Transport, error) {
		toWorkerR, toWorkerW := io.Pipe()
		fromWorkerR, fromWorkerW := io.Pipe()
		go func() {
			defer fromWorkerW.Close()
			c := newConn(struct {
				io.Reader
				io.Writer
			}{toWorkerR, fromWorkerW})
			if _, err := c.recv(); err != nil { // hello
				return
			}
			_ = c.send(message{Type: msgReady})
			m, err := c.recv()
			if err != nil || m.Type != msgPoint {
				return
			}
			fmt.Fprintf(fromWorkerW, `{"type":"point_done","index":%d,"point":%s}`+"\n", m.Index, point)
		}()
		return &pipeTransport{r: fromWorkerR, w: toWorkerW}, nil
	}
}

// TestPrecisionTagRefused pins the one tier check that outlived the
// float32 tier: this build computes at a single tier and never writes a
// "precision" tag, so a checkpoint manifest or a worker result carrying
// one comes from an older build's fast tier and must be refused, not
// merged silently.
func TestPrecisionTagRefused(t *testing.T) {
	spec := testSpec(t)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"manifest on resume", func(t *testing.T) error {
			job, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "ckpt")
			if _, err := initCheckpoint(dir, spec, &job.Config, false); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, manifestName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tagged := bytes.Replace(raw, []byte("{"), []byte(`{"precision":"float32",`), 1)
			if err := os.WriteFile(path, tagged, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Run(context.Background(), spec, Options{
				Shards: 1, CheckpointDir: dir, Resume: true, Launch: inProcLauncher(),
			})
			return err
		}},
		{"worker result", func(t *testing.T) error {
			// A float32-tier worker of an older build tagged its points.
			tagged := `{"vth":0.5,"t":2,"clean_accuracy":0.5,"learnable":false,"precision":"float32"}`
			_, err := Run(context.Background(), spec, Options{Shards: 1, Launch: scriptedWorkerLauncher(tagged)})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(t); err == nil || !strings.Contains(err.Error(), `precision "float32"`) || !strings.Contains(err.Error(), "single float64 tier") {
				t.Fatalf("tagged input not refused: %v", err)
			}
		})
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
			_, err := Run(context.Background(), spec, Options{Shards: 1, Launch: scriptedWorkerLauncher(wrong)})
			if err == nil || !strings.Contains(err.Error(), "wrong cell") || !strings.Contains(err.Error(), "(Vth=1, T=3)") {
				t.Fatalf("a point for another cell was not refused: %v", err)
			}
		}},
		{"checkpoint file", func(t *testing.T) {
			want := singleProcessJSON(t, spec)
			dir := t.TempDir()
			if _, err := Run(context.Background(), spec, Options{
				Shards: 1, Launch: inProcLauncher(), CheckpointDir: dir,
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
			res, err := Run(context.Background(), spec, Options{
				Shards: 1, Launch: inProcLauncher(), CheckpointDir: dir, Resume: true, Log: &log,
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
	a := Spec{Builder: "b", Config: json.RawMessage(`{"x": 1,  "y": [2]}`)}
	b := Spec{Builder: "b", Config: json.RawMessage(`{"x":1,"y":[2]}`)}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on JSON whitespace")
	}
	c := Spec{Builder: "b", Config: json.RawMessage(`{"x":2,"y":[2]}`)}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint ignores config changes")
	}
	d := Spec{Builder: "other", Config: b.Config}
	if b.Fingerprint() == d.Fingerprint() {
		t.Error("fingerprint ignores builder name")
	}
}

func TestOptionsRequireCheckpointDir(t *testing.T) {
	spec := testSpec(t)
	if _, err := Run(context.Background(), spec, Options{
		Shards: 1, Resume: true, Launch: inProcLauncher(),
	}); err == nil {
		t.Error("Resume without CheckpointDir accepted — a forgotten -checkpoint-dir would silently recompute the whole sweep")
	}
	if _, err := Run(context.Background(), spec, Options{
		Shards: 1, MaxPoints: 1, Launch: inProcLauncher(),
	}); err == nil {
		t.Error("MaxPoints without CheckpointDir accepted — the partial result would not be resumable")
	}
	if _, err := Run(context.Background(), spec, Options{
		Shards: 1, SnapshotModels: true, Launch: inProcLauncher(),
	}); err == nil {
		t.Error("SnapshotModels without CheckpointDir accepted")
	}
}

func TestUnknownBuilder(t *testing.T) {
	_, err := Run(context.Background(), Spec{Builder: "nope"}, Options{Shards: 1, Launch: inProcLauncher()})
	if err == nil {
		t.Error("unknown builder accepted")
	}
}

// ---------------------------------------------------------------------------
// Scheduler unit tests

func TestSchedulerStaticBlocks(t *testing.T) {
	s := newScheduler([]int{0, 1, 2, 3, 4}, 2, 0, 3, 0)
	// Shard 0 owns {0,1,2}, shard 1 owns {3,4}.
	if idx, ok := s.next(1); !ok || idx != 3 {
		t.Fatalf("shard 1 first point = %d, want 3", idx)
	}
	if idx, ok := s.next(0); !ok || idx != 0 {
		t.Fatalf("shard 0 first point = %d, want 0", idx)
	}
}

func TestSchedulerStealsFromRichest(t *testing.T) {
	s := newScheduler([]int{0, 1, 2, 3, 4, 5}, 3, 0, 3, 0)
	// Drain shard 2's block {4,5}.
	s.next(2)
	s.next(2)
	s.complete()
	s.complete()
	// Next call steals from the back of the richest block — shard 0's
	// {0,1} and shard 1's {2,3} tie at 2; the first richest wins, tail
	// first.
	if idx, ok := s.next(2); !ok || idx != 1 {
		t.Fatalf("steal = %d, want 1 (tail of shard 0's block)", idx)
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

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("grid-test", nil)
}
