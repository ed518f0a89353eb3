package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"snnsec/internal/modelio"
	"snnsec/internal/obs"
	"snnsec/internal/tensor"
)

// Runner is what the server batches onto: the Engine in production, fakes in the scheduling tests. Logits must be safe to call
// from the dispatcher goroutine and must return an error (not panic) on
// bad input.
type Runner interface {
	Logits(x *tensor.Tensor) (*tensor.Tensor, error)
	SampleShape() []int
}

// Model couples a runner with the checkpoint identity it was built from.
type Model struct {
	// Fingerprint is modelio.Fingerprint of the serialised checkpoint.
	Fingerprint string
	// Meta is the checkpoint metadata (architecture, vth, T, ...).
	Meta map[string]string
	// Runner evaluates the model.
	Runner Runner
}

// BuildFunc reconstructs a runner from an uploaded checkpoint.
type BuildFunc func(m *modelio.Model) (Runner, error)

// Sentinel errors the transports map to status codes.
var (
	// ErrOverloaded reports a full request queue (429).
	ErrOverloaded = errors.New("serve: request queue full")
	// ErrDeadline reports an expired per-request deadline (504).
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrUnknownModel reports a fingerprint the cache does not hold (404).
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrClosed reports a server shut down mid-request (503).
	ErrClosed = errors.New("serve: server closed")
)

// Config tunes the server's scheduling. Zero values select the defaults.
type Config struct {
	// MaxBatch caps the samples one coalesced forward pass carries
	// (default 64).
	MaxBatch int
	// BatchWait is the longest an open batch waits for co-travellers
	// before dispatching below MaxBatch (default 2ms). A batch waits only
	// while waiting finds them: once a wait runs out with the batch's
	// first request still alone, batches go at once until one finds a
	// second request already queued. Zero selects the default; a
	// negative value never waits.
	BatchWait time.Duration
	// QueueDepth bounds the request queue; enqueueing beyond it fails
	// with ErrOverloaded → 429 (default 256).
	QueueDepth int
	// DefaultDeadline is the per-request deadline when the request does
	// not tighten it (default 5s).
	DefaultDeadline time.Duration
	// CacheSize is the LRU model-cache capacity for uploaded models, not
	// counting the pinned default model (default 4).
	CacheSize int
	// MaxBodyBytes bounds HTTP request bodies (default 64 MiB — a
	// checkpoint upload is the largest legitimate body).
	MaxBodyBytes int64
	// TraceWriter, when non-nil, receives one line-JSON TraceRecord per
	// answered request (the -trace flag). Nil disables tracing and its
	// entire cost.
	TraceWriter io.Writer
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// handler (the -pprof flag).
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.BatchWait == 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Server schedules predict requests onto engines: one bounded queue, one
// coalescing dispatcher, a pinned default model and an LRU cache of
// uploaded ones.
type Server struct {
	cfg   Config
	def   *Model
	build BuildFunc
	cache *modelCache
	b     *batcher
	// trace is nil unless Config.TraceWriter was set.
	trace *traceLog
	// draining flips when a graceful shutdown starts: /healthz answers
	// 503 so load balancers stop routing here, while accepted requests
	// keep being served.
	draining atomic.Bool
}

// NewServer starts a server for the given default model. build may be
// nil to disable checkpoint uploads.
func NewServer(cfg Config, def *Model, build BuildFunc) (*Server, error) {
	if def == nil || def.Runner == nil {
		return nil, fmt.Errorf("serve: server needs a default model")
	}
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		def:   def,
		build: build,
		cache: newModelCache(cfg.CacheSize),
		b:     newBatcher(cfg.MaxBatch, cfg.BatchWait, cfg.QueueDepth),
		trace: newTraceLog(cfg.TraceWriter),
	}, nil
}

// Close stops the dispatcher and fails queued requests with ErrClosed.
func (s *Server) Close() { s.b.close() }

// BeginDrain marks the server as draining: /healthz flips to 503 so load
// balancers stop routing new work here, while everything already
// accepted keeps being served. Call it when the shutdown signal arrives,
// before closing listeners.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether a graceful shutdown has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainAndClose begins draining (if not already begun), answers every
// request still queued — bounded by timeout — and then closes the
// server. A non-nil error means the timeout fired and accepted requests
// were failed with ErrClosed.
func (s *Server) DrainAndClose(timeout time.Duration) error {
	s.BeginDrain()
	return s.b.drainAndClose(timeout)
}

// AddModel deserialises an uploaded checkpoint, builds its runner and
// caches it under its fingerprint, evicting the least recently used
// model if the cache is full. In-flight requests on an evicted model
// finish normally — eviction only drops the cache reference.
func (s *Server) AddModel(raw []byte) (*Model, error) {
	if s.build == nil {
		return nil, fmt.Errorf("%w: model uploads are disabled", ErrBadRequest)
	}
	cm, err := modelio.FromBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	r, err := s.build(cm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m := &Model{Fingerprint: modelio.Fingerprint(raw), Meta: cm.Meta, Runner: r}
	s.cache.Add(m)
	return m, nil
}

// Models returns the default fingerprint plus the cached ones (MRU
// first).
func (s *Server) Models() []string {
	return append([]string{s.def.Fingerprint}, s.cache.Fingerprints()...)
}

// Predict resolves the request's model, enqueues it and waits for the
// coalesced result or the deadline, whichever comes first.
func (s *Server) Predict(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	m := s.def
	if req.Model != "" && req.Model != s.def.Fingerprint {
		if m = s.cache.Get(req.Model); m == nil {
			return nil, fmt.Errorf("%w: %s", ErrUnknownModel, req.Model)
		}
	}
	shape := m.Runner.SampleShape()
	sampleLen := 1
	for _, d := range shape {
		sampleLen *= d
	}
	for i, row := range req.Inputs {
		if len(row) != sampleLen {
			return nil, fmt.Errorf("%w: input %d has %d elements, model %s wants %d",
				ErrBadRequest, i, len(row), m.Fingerprint[:min(12, len(m.Fingerprint))], sampleLen)
		}
	}
	n := len(req.Inputs)
	x := tensor.New(append([]int{n}, shape...)...)
	xd := x.Data()
	for i, row := range req.Inputs {
		copy(xd[i*sampleLen:(i+1)*sampleLen], row)
	}
	deadline := time.Now().Add(s.cfg.DefaultDeadline)
	if req.DeadlineMS > 0 {
		if d := time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond); d.Before(deadline) {
			deadline = d
		}
	}
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	c := &call{runner: m.Runner, x: x, n: n, deadline: deadline, done: make(chan callResult, 1)}
	if s.trace != nil {
		c.trace = &traceTimes{enq: time.Now()}
	}
	if err := s.b.enqueue(c); err != nil {
		metricRequests.With(fpShort(m.Fingerprint), "rejected").Inc()
		s.emitTrace(c, m, err, true) // never reached the dispatcher, all stamps are ours
		return nil, err
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case res := <-c.done:
		if res.err != nil {
			metricRequests.With(fpShort(m.Fingerprint), "error").Inc()
			s.emitTrace(c, m, res.err, true)
			return nil, res.err
		}
		logits := make([][]float64, n)
		classes := res.logits.Dim(1)
		ld := res.logits.Data()
		for i := range logits {
			logits[i] = ld[i*classes : (i+1)*classes : (i+1)*classes]
		}
		metricRequests.With(fpShort(m.Fingerprint), "ok").Inc()
		s.emitTrace(c, m, nil, true)
		return &PredictResponse{
			Model:  m.Fingerprint,
			Logits: logits,
			Preds:  tensor.ArgmaxRowsOn(nil, res.logits),
		}, nil
	case <-timer.C:
		c.cancelled.Store(true)
		metricDeadlineWithdrawals.Inc()
		metricRequests.With(fpShort(m.Fingerprint), "deadline").Inc()
		s.emitTrace(c, m, ErrDeadline, false)
		return nil, ErrDeadline
	case <-ctx.Done():
		c.cancelled.Store(true)
		metricDeadlineWithdrawals.Inc()
		metricRequests.With(fpShort(m.Fingerprint), "deadline").Inc()
		err := fmt.Errorf("%w: %v", ErrDeadline, ctx.Err())
		s.emitTrace(c, m, err, false)
		return nil, err
	}
}

// ---------------------------------------------------------------------------
// HTTP transport

// Handler returns the HTTP API:
//
//	POST /v1/predict  PredictRequest JSON → PredictResponse JSON
//	POST /v1/models   raw checkpoint bytes → {"model": fingerprint, ...}
//	GET  /v1/models   {"models": [fingerprints...]} (default first)
//	GET  /healthz     {"ok": true, "queue_depth": ..., "models_cached": ..., ...}
//	GET  /metrics     Prometheus text exposition of the default registry
//
// With Config.EnablePprof, net/http/pprof is additionally mounted under
// /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/models", s.handleAddModel)
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"models": s.Models()})
	})
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	obs.MountMetrics(mux)
	if s.cfg.EnablePprof {
		obs.MountPprof(mux)
	}
	return mux
}

// handleHealthz answers the liveness probe. Beyond the original ok/
// draining pair (which existing probes key on), the body carries live
// operational fields: queue depth, model-cache occupancy and build
// identity. These read the server directly, not the metrics registry,
// so they are accurate even when collection is disarmed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"ok":            !s.Draining(),
		"queue_depth":   s.b.queueLen(),
		"models_cached": s.cache.Len(),
		"version":       obs.Version(),
		"go":            runtime.Version(),
		"arch":          runtime.GOARCH,
	}
	if s.Draining() {
		body["draining"] = true
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	req, err := ParsePredictRequest(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.Predict(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAddModel(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	m, err := s.AddModel(raw)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"model": m.Fingerprint, "meta": m.Meta})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
		// Retry-After reflects the actual backlog: the forwards needed
		// to drain the queued samples, MaxBatch at a time, times the
		// smoothed per-forward service time, so clients back off
		// proportionally to how overloaded the server really is.
		w.Header().Set("Retry-After", strconv.Itoa(s.b.retryAfter()))
	case errors.Is(err, ErrDeadline):
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrUnknownModel):
		status = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// ---------------------------------------------------------------------------
// Line-JSON transport

// ServeLinesContext is ServeLines with graceful drain: when ctx is
// cancelled, the request currently being served is answered (the
// cancellation is only observed between requests), no further lines are
// read, and nil is returned — the stdio analogue of closing the HTTP
// listener on SIGTERM. The reader goroutine may stay blocked in a read
// until the process exits; that is fine for the one use (stdin of a
// process about to exit).
func (s *Server) ServeLinesContext(ctx context.Context, r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), int(s.cfg.MaxBodyBytes))
	lines := make(chan []byte)
	scanErr := make(chan error, 1)
	go func() {
		defer close(lines)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			select {
			case lines <- line:
			case <-ctx.Done():
				return
			}
		}
		scanErr <- sc.Err()
	}()
	enc := json.NewEncoder(w)
	for {
		var line []byte
		select {
		case <-ctx.Done():
			return nil
		case l, ok := <-lines:
			if !ok {
				select {
				case err := <-scanErr:
					return err
				default:
					// The reader quit because ctx fired mid-handoff.
					return nil
				}
			}
			line = l
		}
		if len(line) == 0 {
			continue
		}
		req, err := ParsePredictRequest(line)
		if err != nil {
			if eerr := enc.Encode(map[string]string{"error": err.Error()}); eerr != nil {
				return eerr
			}
			continue
		}
		// Deliberately not ctx: a cancellation mid-request means drain,
		// and an accepted request must still be answered (the per-request
		// deadline bounds it regardless).
		resp, err := s.Predict(context.Background(), req)
		if err != nil {
			if eerr := enc.Encode(map[string]string{"error": err.Error()}); eerr != nil {
				return eerr
			}
			continue
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
}
