package grid

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"snnsec/internal/explore"
)

// The wire protocol is one JSON object per line in each direction, so a
// worker can be driven by anything that can pipe newline-delimited JSON
// — the local exec launcher, an ssh wrapper, a container runtime.
//
// Coordinator → worker:
//
//	{"type":"hello","spec":…,"kernel_workers":k,"want_model":b,"heartbeat_ms":h}
//	{"type":"point","index":i}        assign grid point i
//	{"type":"done"}                   no more work; worker exits
//
// Worker → coordinator:
//
//	{"type":"ready"}                  hello processed / previous point sent
//	{"type":"heartbeat"}              still computing the assigned point
//	{"type":"point_done","index":i,"point":…,"model":…}
//	{"type":"point_failed","index":i,"err":…}  this point failed; worker lives on
//	{"type":"fatal","err":…}          unrecoverable worker error
//
// A worker handles one point at a time (process-level parallelism is the
// coordinator's job), so the conversation is a strict request/response
// alternation after hello — except heartbeats, which the worker streams
// while a point computes (at the hello's heartbeat_ms interval) so the
// coordinator can tell a long-running point from a hung worker. A worker
// that sends nothing for the coordinator's stall timeout has its point
// withdrawn and reassigned, exactly as if its pipe had died.
const (
	msgHello       = "hello"
	msgPoint       = "point"
	msgDone        = "done"
	msgReady       = "ready"
	msgHeartbeat   = "heartbeat"
	msgPointDone   = "point_done"
	msgPointFailed = "point_failed"
	msgFatal       = "fatal"
)

// message is the single wire envelope of the protocol.
type message struct {
	Type string `json:"type"`

	// hello fields.
	Spec json.RawMessage `json:"spec,omitempty"`
	// KernelWorkers is the compute-backend width the worker must run its
	// tensor kernels at — its slice of the coordinator's CPU budget.
	KernelWorkers int `json:"kernel_workers,omitempty"`
	// WantModel asks the worker to attach a modelio snapshot of each
	// successfully trained point (for checkpoint model files).
	WantModel bool `json:"want_model,omitempty"`
	// HeartbeatMS is the interval (milliseconds) at which the worker
	// must send heartbeat messages while computing a point; 0 disables
	// heartbeats (and the coordinator's stall detection with them).
	HeartbeatMS int `json:"heartbeat_ms,omitempty"`

	// point / point_done / point_failed fields. Index is the T-major
	// grid index; no omitempty, 0 is a valid index.
	Index int                `json:"index"`
	Point *explore.WirePoint `json:"point,omitempty"`
	// Model is the modelio checkpoint of the trained point
	// (base64-encoded by encoding/json).
	Model []byte `json:"model,omitempty"`

	// fatal / point_failed error text.
	Err string `json:"err,omitempty"`
}

// Transport is one duplex byte stream to a worker. Close must release
// the underlying resources (pipes, the worker process).
type Transport interface {
	io.Reader
	io.Writer
	Close() error
}

// conn frames messages over a transport. send is mutex-guarded because
// the worker's heartbeat goroutine writes concurrently with its main
// loop; recv has a single reader on each side.
type conn struct {
	sendMu sync.Mutex
	enc    *json.Encoder
	dec    *json.Decoder
}

func newConn(rw io.ReadWriter) *conn {
	return &conn{enc: json.NewEncoder(rw), dec: json.NewDecoder(rw)}
}

func (c *conn) send(m message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.enc.Encode(m)
}

func (c *conn) recv() (message, error) {
	var m message
	if err := c.dec.Decode(&m); err != nil {
		return message{}, err
	}
	if m.Type == msgFatal {
		return m, fmt.Errorf("grid: peer reported: %s", m.Err)
	}
	return m, nil
}
