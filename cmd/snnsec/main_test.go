package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snnsec/internal/core"
	"snnsec/internal/modelio"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// TestMain lets this test binary stand in for the snnsec binary when the
// distributed grid coordinator under test re-executes itself
// (os.Executable()) as a shard worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "grid-worker" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "snnsec:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no subcommand accepted")
	}
}

func TestRunUnknown(t *testing.T) {
	err := run([]string{"bogus"})
	if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestRunVersionAndHelp(t *testing.T) {
	if err := run([]string{"version"}); err != nil {
		t.Errorf("version: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestInfoUsage(t *testing.T) {
	if err := run([]string{"info"}); err == nil {
		t.Error("info without args accepted")
	}
	if err := run([]string{"info", "/nonexistent/ckpt"}); err == nil {
		t.Error("info on missing file accepted")
	}
}

func TestAttackRequiresCkpt(t *testing.T) {
	if err := run([]string{"attack"}); err == nil || !strings.Contains(err.Error(), "-ckpt") {
		t.Errorf("attack without ckpt: %v", err)
	}
}

func TestInfoOnRealCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	r := tensor.NewRand(1, 1)
	params := []*nn.Param{nn.NewParam("w", tensor.RandN(r, 0, 1, 2, 2))}
	if err := modelio.SaveFile(path, map[string]string{"model": "cnn"}, params); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"info", path}); err != nil {
		t.Errorf("info: %v", err)
	}
}

func TestRebuildModelUnknownKind(t *testing.T) {
	s := core.BenchScale()
	m := &modelio.Model{Meta: map[string]string{"model": "transformer"}}
	if _, _, err := core.BuildFromCheckpoint(s, m); err == nil {
		t.Error("unknown model kind accepted")
	}
	m = &modelio.Model{Meta: map[string]string{"model": "snn"}}
	if _, _, err := core.BuildFromCheckpoint(s, m); err == nil {
		t.Error("snn checkpoint without vth accepted")
	}
}

// TestNonFiniteAndNegativeFlagsRefused: NaN passes a `<= 0` guard, so
// `train -vth nan` used to train a silent network and exit 0, `attack
// -eps -1,nan` to report on a negative budget, and `-steps -2` to become
// 10. Every refusal names its flag or field and comes before any work.
func TestNonFiniteAndNegativeFlagsRefused(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "never-read.ckpt")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"train", "-vth", "nan"}, "Vth"},
		{[]string{"train", "-vth", "+inf"}, "Vth"},
		{[]string{"train", "-vth", "-1"}, "Vth"},
		{[]string{"analyze", "-vth", "nan"}, "Vth"},
		{[]string{"analyze", "-sweep", "0.5,nan"}, "-sweep"},
		{[]string{"analyze", "-sweep", "0.5,inf"}, "-sweep"},
		{[]string{"analyze", "-sweep", "0.5,-1"}, "-sweep"},
		{[]string{"analyze", "-sweep", "0"}, "-sweep"},
		{[]string{"analyze", "-sweep", "0.5,abc"}, "-sweep"},
		{[]string{"attack", "-ckpt", ckpt, "-eps", "-1,nan"}, "-eps"},
		{[]string{"attack", "-ckpt", ckpt, "-eps", "0.5,nan"}, "-eps"},
		{[]string{"attack", "-ckpt", ckpt, "-eps", "inf"}, "-eps"},
		{[]string{"attack", "-ckpt", ckpt, "-steps", "-2"}, "-steps"},
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.want)
		}
	}
	// A checkpoint's metadata is parsed with ParseFloat, which reads "NaN".
	s := core.BenchScale()
	for _, vth := range []string{"NaN", "Inf", "-Inf", "-1", "0"} {
		m := &modelio.Model{Meta: map[string]string{"model": "snn", "vth": vth, "T": "4"}}
		if _, _, err := core.BuildFromCheckpoint(s, m); err == nil || !strings.Contains(err.Error(), "Vth") {
			t.Errorf("checkpoint vth %q: error %v, want one naming Vth", vth, err)
		}
	}
}

func TestTrainBadModelKind(t *testing.T) {
	if err := run([]string{"train", "-model", "mlp"}); err == nil {
		t.Error("unknown model kind accepted by train")
	}
}

// tinyGridDigest is the sha256 of the tiny preset's `grid -json` output,
// recorded on amd64 (like the snn golden digests). A change that moves
// any bit of Algorithm 1 — training, gate, PGD, the JSON schema — moves
// it; a pure refactor must not.
const tinyGridDigest = "4b9f9d78c6e00f7d03d76872c618b540502693f78001344fb2e7c5adad158713"

// TestTinyGridDigest pins the tiny sweep's JSON, driven through the same
// path as the CI grid smokes.
func TestTinyGridDigest(t *testing.T) {
	t.Setenv(core.ScaleEnv, "tiny")
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := run([]string{"grid", "-json", path}); err != nil {
		t.Fatalf("grid: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tinyGridDigest {
		t.Errorf("tiny grid -json sha256 %s, want %s", got, tinyGridDigest)
	}
}

// TestGridShardedCLISmoke is the end-to-end distributed smoke: a
// two-shard run with real grid-worker subprocesses, sliced by
// -max-points, killed (by exhausting its budget), resumed — and the
// final merged JSON must be byte-identical to the single-process run's.
func TestGridShardedCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess grid smoke in -short mode")
	}
	t.Setenv(core.ScaleEnv, "tiny")
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	distJSON := filepath.Join(dir, "dist.json")
	singleJSON := filepath.Join(dir, "single.json")

	// Partial first invocation: budget of 2 of the 4 tiny-grid points.
	if err := run([]string{"grid", "-shards", "2", "-checkpoint-dir", ckpt, "-max-points", "2"}); err != nil {
		t.Fatalf("partial sharded grid: %v", err)
	}
	// Resume to completion.
	if err := run([]string{"grid", "-shards", "2", "-checkpoint-dir", ckpt, "-resume", "-json", distJSON}); err != nil {
		t.Fatalf("resumed sharded grid: %v", err)
	}
	// Single-process reference.
	if err := run([]string{"grid", "-json", singleJSON}); err != nil {
		t.Fatalf("single-process grid: %v", err)
	}
	dist, err := os.ReadFile(distJSON)
	if err != nil {
		t.Fatal(err)
	}
	single, err := os.ReadFile(singleJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dist, single) {
		t.Errorf("sharded+resumed result differs from single-process run:\n got: %s\nwant: %s", dist, single)
	}
	// The checkpoint holds one point file and one model snapshot per
	// grid point.
	if points, models := checkpointFiles(t, ckpt); points != 4 || models != 4 {
		t.Errorf("checkpoint has %d point files and %d model snapshots, want 4 and 4", points, models)
	}
}

// TestGridFlagsValidated pins the grid flag rules that outlived the
// -shards fork: a resume or a point budget needs a checkpoint directory
// to resume from, and negative counts are errors naming the flag, not a
// silent in-process sweep or an unbounded one. Each is refused before
// any data is loaded.
func TestGridFlagsValidated(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"grid", "-resume"}, "resuming needs a checkpoint directory to resume from (-checkpoint-dir)"},
		{[]string{"grid", "-max-points", "2"}, "only a checkpoint directory (-checkpoint-dir) keeps for a resume"},
		{[]string{"grid", "-shards", "-2"}, "-shards"},
		{[]string{"grid", "-shards", "2", "-max-points", "-1", "-checkpoint-dir", t.TempDir()}, "-max-points"},
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.want)
		}
	}
}

// TestGridInProcessCheckpointResume pins that the single-process sweep
// checkpoints and resumes like a sharded one: a run sliced by
// -max-points and then resumed writes the recorded tiny-grid bytes and
// leaves one point file and one model snapshot per grid point.
func TestGridInProcessCheckpointResume(t *testing.T) {
	t.Setenv(core.ScaleEnv, "tiny")
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	path := filepath.Join(dir, "grid.json")
	if err := run([]string{"grid", "-checkpoint-dir", ckpt, "-max-points", "2"}); err != nil {
		t.Fatalf("partial in-process grid: %v", err)
	}
	if err := run([]string{"grid", "-checkpoint-dir", ckpt, "-resume", "-json", path}); err != nil {
		t.Fatalf("resumed in-process grid: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tinyGridDigest {
		t.Errorf("sliced and resumed tiny grid -json sha256 %s, want %s", got, tinyGridDigest)
	}
	if points, models := checkpointFiles(t, ckpt); points != 4 || models != 4 {
		t.Errorf("checkpoint has %d point files and %d model snapshots, want 4 and 4", points, models)
	}
}

// checkpointFiles counts the point files and model snapshots in a grid
// checkpoint directory.
func checkpointFiles(t *testing.T, dir string) (points, models int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "point-") {
			points++
		}
		if strings.HasPrefix(e.Name(), "model-") {
			models++
		}
	}
	return points, models
}

// TestGlobalFlagValidation pins the strict global-flag contract: bad
// values are errors, never silently clamped.
func TestGlobalFlagValidation(t *testing.T) {
	if err := run([]string{"-workers", "-2", "version"}); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("negative -workers: %v", err)
	}
}

func TestTrainAttackRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI round trip in -short mode")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "cnn.ckpt")
	if err := run([]string{"train", "-model", "cnn", "-out", ckpt}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := run([]string{"info", ckpt}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := run([]string{"attack", "-ckpt", ckpt, "-attack", "fgsm", "-eps", "0.5"}); err != nil {
		t.Fatalf("attack: %v", err)
	}
	if err := run([]string{"attack", "-ckpt", ckpt, "-attack", "nope", "-eps", "0.5"}); err == nil {
		t.Error("unknown attack kind accepted")
	}
	if err := run([]string{"attack", "-ckpt", ckpt, "-eps", "abc"}); err == nil {
		t.Error("malformed eps accepted")
	}
}
