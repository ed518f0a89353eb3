// Package grid is the engine behind Algorithm 1's (Vth, T) exploration:
// it shards the grid of internal/explore across workers, streams
// per-point results back over a line-delimited JSON protocol, persists
// every completed point to a durable on-disk checkpoint, and merges the
// shards into an explore.Result that is bit-identical to the
// single-process explore.Run.
//
// # Architecture
//
// The coordinator (Run) owns scheduling: the pending points are dealt
// round-robin into one block per shard (the grid is T-major and a
// point's cost grows with T, so a dealt block mixes cheap and costly
// points where a contiguous one would give the last shard every
// longest point), workers pull one point at a time, and a worker that
// drains its own block steals from the back of the richest remaining
// block, so straggler shards do not serialise the run. A crashed worker's in-flight point is returned to the queue
// and reassigned; the run fails only when every worker is gone.
//
// Workers speak the protocol over any byte stream. By default they are
// goroutines of the coordinator's process connected by pipes, sharing
// one load of the datasets; ExecLauncher spawns them as local
// processes, and a custom Launcher attaches them from anywhere, so
// remote launch wrappers (ssh, containers) need nothing beyond
// stdin/stdout plumbing.
// The job travels as its JSON spec alone: the coordinator (Run) and
// every worker (ServeWorker) rebuild it with the BuildJob their caller
// passes, so the two sides of a run must be handed the same function.
// Each worker receives a kernel budget with its hello message: the
// coordinator divides its own CPU budget by the shard count (the
// Workers × KernelWorkers ≤ NumCPU rule of internal/explore, applied
// across goroutines or processes), so shards on one machine compose
// without oversubscribing it.
//
// # Determinism
//
// Every source of randomness under a grid point derives from the
// configuration seed and the point's T-major index (see the per-point
// entry points of internal/explore), and job specifications travel as
// JSON whose float64 encoding round-trips exactly. A merged multi-shard
// result — including one resumed from a checkpoint — is therefore
// bit-identical to the single-process run, which the tests assert
// byte-for-byte on the serialised result.
package grid

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"snnsec/internal/dataset"
	"snnsec/internal/explore"
)

// Job is a reconstructed grid job: the exploration configuration
// (including the network builder and optimiser factory, which cannot
// travel over the wire) plus a lazy dataset loader. Data is a function
// so the coordinator — which only needs the grid axes — never pays for
// loading the training set; workers call it once after the hello.
type Job struct {
	Config explore.Config
	// Data loads the train and test datasets. It must be deterministic:
	// every process of a run must see identical data.
	Data func() (trainDS, testDS *dataset.Dataset, err error)
}

// BuildJob reconstructs a grid job from its serialised specification.
// It runs in every process of a distributed run — coordinator and
// workers alike — so the caller hands the same function to Run and to
// ServeWorker. It must be deterministic: two processes building the
// same spec must produce jobs whose per-point runs are bit-identical.
type BuildJob func(spec json.RawMessage) (Job, error)

// fingerprint returns a stable hash of the whitespace-insensitive spec
// JSON. Checkpoints record it so a resume against a different job is
// rejected instead of silently merging incompatible points.
func fingerprint(spec json.RawMessage) string {
	var compact bytes.Buffer
	if err := json.Compact(&compact, spec); err != nil {
		compact.Reset()
		compact.Write(spec)
	}
	sum := sha256.Sum256(compact.Bytes())
	return hex.EncodeToString(sum[:])
}
