package grid

// Fault-injection scenarios for the distributed sweep. Every test here
// asserts the same invariant the package promises in the happy path:
// whatever faults are injected, the merged result for completed points
// is byte-identical to the fault-free single-process run.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"snnsec/internal/faultinject"
	"snnsec/internal/obs"
)

// installFaults activates a fault spec for the duration of the test.
// In-process coordinator and workers share the injector, so occurrence
// counts are process-wide — specs below are written for that.
func installFaults(t *testing.T, spec string) {
	t.Helper()
	inj, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	t.Cleanup(func() { faultinject.Set(nil) })
}

// syncBuffer is a concurrency-safe log sink (serveShard goroutines log
// concurrently).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestStalledWorkerPointWithdrawn(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	// The first assigned point sleeps well past the stall timeout before
	// any heartbeat starts — a hung-but-alive worker. The coordinator
	// must withdraw the point and let the surviving shard finish it.
	installFaults(t, "grid.worker.point@1=delay:500ms")
	var log syncBuffer
	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards:       2,
		StallTimeout: 100 * time.Millisecond,
		RetryBackoff: -1, // requeue immediately
		Logger:       obs.NewLogger(&log, obs.LevelInfo),
	})
	if err != nil {
		t.Fatalf("run with stalled worker failed: %v\n%s", err, log.String())
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("result after stall differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
	if !strings.Contains(log.String(), "stalled") {
		t.Errorf("log does not mention the stall:\n%s", log.String())
	}
}

func TestTransientPointFailuresRetried(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	// With one shard the assignment order is deterministic (0,1,2,3),
	// so hits 1 and 2 fail the first attempts of points 0 and 1; their
	// retries (hits 5 and 6) succeed.
	installFaults(t, "grid.worker.point@1=error;grid.worker.point@2=error")
	var log syncBuffer
	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards:       1,
		RetryBackoff: -1,
		Logger:       obs.NewLogger(&log, obs.LevelInfo),
	})
	if err != nil {
		t.Fatalf("run with transient failures failed: %v\n%s", err, log.String())
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("result after transient failures differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
	if !strings.Contains(log.String(), "retry 1 scheduled") {
		t.Errorf("log does not mention the retries:\n%s", log.String())
	}
}

func TestPoisonPointQuarantined(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	// Point 0 fails on its first attempt (hit 1) and again on its retry
	// (hit 5, after points 1..3 complete in order on the single shard).
	// With one retry allowed, the second failure quarantines it: the
	// sweep completes as a partial result, without an error.
	installFaults(t, "grid.worker.point@1=error;grid.worker.point@5=error")
	var log syncBuffer
	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards:          1,
		MaxPointRetries: 1,
		RetryBackoff:    -1,
		Logger:          obs.NewLogger(&log, obs.LevelInfo),
	})
	if err != nil {
		t.Fatalf("run with poison point failed outright: %v\n%s", err, log.String())
	}
	if missing := res.MissingIndices(); len(missing) != 1 || missing[0] != 0 {
		t.Fatalf("missing points = %v, want [0]\n%s", missing, log.String())
	}
	if !strings.Contains(log.String(), "quarantined") {
		t.Errorf("log does not mention the quarantine:\n%s", log.String())
	}
	if bytes.Equal(resultJSON(t, res), want) {
		t.Error("partial result claims to equal the complete run")
	}
}

func TestCorruptCheckpointFilesQuarantinedOnResume(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	dir := t.TempDir()
	if _, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 1, CheckpointDir: dir,
	}); err != nil {
		t.Fatal(err)
	}

	// One corruption mode per point file; point 3 stays intact.
	cases := []struct {
		idx     int
		name    string
		corrupt func(path string) error
	}{
		{0, "truncated", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, raw[:len(raw)/2], 0o644)
		}},
		{1, "bit-flipped", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[len(raw)/2] ^= 0x01
			return os.WriteFile(p, raw, 0o644)
		}},
		{2, "zero-length", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
	}
	for _, c := range cases {
		if err := c.corrupt(filepath.Join(dir, pointFile(c.idx))); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}

	var log syncBuffer
	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 1, CheckpointDir: dir, Resume: true,
		Logger: obs.NewLogger(&log, obs.LevelInfo),
	})
	if err != nil {
		t.Fatalf("resume over corrupt files failed: %v\n%s", err, log.String())
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
	for _, c := range cases {
		quarantined := filepath.Join(dir, pointFile(c.idx)+".corrupt")
		if _, err := os.Stat(quarantined); err != nil {
			t.Errorf("%s point %d: no quarantine file: %v", c.name, c.idx, err)
		}
		// The point was recomputed and re-checkpointed.
		if _, err := os.Stat(filepath.Join(dir, pointFile(c.idx))); err != nil {
			t.Errorf("%s point %d: not re-checkpointed: %v", c.name, c.idx, err)
		}
	}
	if !strings.Contains(log.String(), "quarantined 3 corrupt checkpoint file(s)") {
		t.Errorf("log does not report the quarantine:\n%s", log.String())
	}
}

func TestTornCheckpointWriteDetectedOnResume(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	dir := t.TempDir()
	// The second checkpoint write lands truncated — the rename happens
	// but half the bytes are missing, as if the filesystem lied about
	// durability. The first run's in-memory result is unaffected.
	installFaults(t, "grid.checkpoint.write@2=torn")
	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 1, CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("torn checkpoint write corrupted the in-memory result:\n got: %s\nwant: %s", got, want)
	}

	faultinject.Set(nil)
	var log syncBuffer
	res, err = Run(context.Background(), testBuild, spec, Options{
		Shards: 1, CheckpointDir: dir, Resume: true,
		Logger: obs.NewLogger(&log, obs.LevelInfo),
	})
	if err != nil {
		t.Fatalf("resume over torn write failed: %v\n%s", err, log.String())
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
	// With one shard the second write is point 1's file.
	if _, err := os.Stat(filepath.Join(dir, pointFile(1)+".corrupt")); err != nil {
		t.Errorf("torn file not quarantined: %v\n%s", err, log.String())
	}
}

func TestStallDetectionDisabled(t *testing.T) {
	spec := testSpec(t)
	want := singleProcessJSON(t, spec)
	// Negative StallTimeout turns heartbeats and withdrawal off — the
	// pre-robustness protocol, still byte-identical.
	res, err := Run(context.Background(), testBuild, spec, Options{
		Shards: 2, StallTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("heartbeat-free result differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
}
