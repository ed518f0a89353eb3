package grid

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"snnsec/internal/dataset"
	"snnsec/internal/faultinject"
)

// inProcess is the Launcher a nil Options.Launch selects: each shard is
// a goroutine running ServeWorker over a pair of pipes — the protocol
// without the subprocess. The shards share one load of the datasets,
// as explore.Run does: training and the attacks only read them.
func inProcess(build BuildJob) Launcher {
	var once sync.Once
	var trainDS, testDS *dataset.Dataset
	var dataErr error
	shared := func(spec json.RawMessage) (Job, error) {
		job, err := build(spec)
		load := job.Data
		job.Data = func() (*dataset.Dataset, *dataset.Dataset, error) {
			once.Do(func() { trainDS, testDS, dataErr = load() })
			return trainDS, testDS, dataErr
		}
		return job, err
	}
	return func(int) (Transport, error) {
		return goWorker(func(r io.Reader, w io.Writer) error { return ServeWorker(shared, r, w) }), nil
	}
}

// goWorker runs serve on its own goroutine, connected to the returned
// transport by two pipes. When serve returns, its pipe ends close, so
// the coordinator's reads see EOF and its writes fail rather than block.
func goWorker(serve func(r io.Reader, w io.Writer) error) Transport {
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	go func() {
		_ = serve(toWorkerR, fromWorkerW)
		toWorkerR.Close()
		fromWorkerW.Close()
	}()
	return pipeTransport{fromWorkerR, toWorkerW}
}

// pipeTransport is the coordinator's end of an in-process worker.
// Closing it ends the worker's reads and writes; a worker busy inside a
// point finishes that point first, then finds its pipes closed.
type pipeTransport struct {
	*io.PipeReader
	*io.PipeWriter
}

func (p pipeTransport) Close() error {
	p.PipeWriter.Close()
	return p.PipeReader.Close()
}

// ExecLauncher spawns one local worker subprocess per shard, speaking
// the protocol over its stdin/stdout; stderr passes through to the
// coordinator's stderr so worker logs stay visible. The CLI uses it as
// ExecLauncher(os.Executable(), "grid-worker"); pointing name at a
// wrapper script (ssh, docker run, …) is all a remote launch needs.
func ExecLauncher(name string, args ...string) Launcher {
	return func(shard int) (Transport, error) {
		cmd := exec.Command(name, args...)
		cmd.Stderr = os.Stderr
		// Tag the subprocess with its shard id so shard-scoped fault
		// rules (point@s2:…) land on exactly one worker. The fault spec
		// and seed themselves travel via the environment too (the CLI
		// exports them), so a chaos schedule follows the whole tree.
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", faultinject.EnvShard, shard))
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("grid: starting worker %q: %w", name, err)
		}
		return &execTransport{cmd: cmd, in: stdin, out: stdout}, nil
	}
}

// execTransport is the coordinator's handle on a worker subprocess.
type execTransport struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  io.ReadCloser
	once sync.Once
	werr error
}

func (t *execTransport) Read(p []byte) (int, error)  { return t.out.Read(p) }
func (t *execTransport) Write(p []byte) (int, error) { return t.in.Write(p) }

// Kill forcibly terminates the worker process. The coordinator uses it
// when a worker is known-wedged (its point already withdrawn after a
// stall) so the subsequent Close reaps immediately instead of waiting
// out the grace period.
func (t *execTransport) Kill() {
	if t.cmd.Process != nil {
		_ = t.cmd.Process.Kill()
	}
}

// Close shuts the worker down: closing stdin makes a healthy worker exit
// its read loop; a wedged one is killed after a grace period so Close
// (and the coordinator) cannot hang on it. Close is idempotent — the
// shard goroutine and the cancellation path may both call it.
func (t *execTransport) Close() error {
	t.once.Do(func() {
		_ = t.in.Close()
		killer := time.AfterFunc(10*time.Second, func() {
			if t.cmd.Process != nil {
				_ = t.cmd.Process.Kill()
			}
		})
		defer killer.Stop()
		t.werr = t.cmd.Wait()
	})
	return t.werr
}
