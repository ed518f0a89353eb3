package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/modelio"
	"snnsec/internal/serve"
)

// multiFlag collects a repeatable string flag value.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// cmdServe loads a checkpoint into the inference engine and serves it — over HTTP on -addr, or as line-JSON on stdin/stdout with
// -stdio. Both transports speak the same request/response objects, so a
// served prediction can be diffed byte-for-byte against an offline run
// (the CI smoke does exactly that). -ckpt may be repeated: the first
// checkpoint is the default model, the rest are preloaded into the LRU
// model cache so requests naming their fingerprint never pay a cold
// build.
//
// Shutdown is graceful on SIGTERM/SIGINT: the server stops accepting,
// /healthz flips to 503 draining, and every already-accepted request is
// answered before the process exits — bounded by -drain-timeout. Exit
// codes: 0 when the drain finished (no accepted request was dropped),
// 3 when the drain timed out and queued requests were failed, 1 for any
// other error. A second signal kills the process immediately.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var ckpts multiFlag
	fs.Var(&ckpts, "ckpt", "checkpoint path (required; repeatable — first is the default model, the rest preload the cache)")
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	stdio := fs.Bool("stdio", false, "serve line-JSON on stdin/stdout instead of HTTP")
	maxBatch := fs.Int("max-batch", 64, "max samples per coalesced forward pass")
	batchWait := fs.Duration("batch-wait", 2*time.Millisecond,
		"the longest an open batch waits for more requests; a batch waits only while waits find them (after one ends with the batch still a lone request, batches go at once until one finds a second request queued); 0 selects the default, negative never waits")
	queue := fs.Int("queue", 256, "request queue depth; overflow returns 429")
	deadline := fs.Duration("deadline", 5*time.Second, "default per-request deadline")
	cacheSize := fs.Int("cache", 4, "LRU capacity for uploaded models")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second,
		"how long a SIGTERM/SIGINT shutdown may spend answering already-accepted requests before giving up (exit code 3)")
	logLevel := fs.String("log-level", "", "minimum stderr log level: debug, info (default), warn or error")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ on the HTTP handler alongside /metrics")
	tracePath := fs.String("trace", "", "append one line-JSON trace record per request to this file (empty disables tracing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lg, err := stderrLogger(*logLevel)
	if err != nil {
		return err
	}
	if len(ckpts) == 0 {
		return fmt.Errorf("serve: -ckpt is required")
	}
	if extra := len(ckpts) - 1; extra > *cacheSize {
		return fmt.Errorf("serve: %d preloaded checkpoints would not fit the model cache (-cache %d); raise -cache", extra, *cacheSize)
	}
	raw, err := os.ReadFile(ckpts[0])
	if err != nil {
		return err
	}
	m, err := modelio.FromBytes(raw)
	if err != nil {
		return err
	}
	s := core.ScaleFromEnv()
	model, sample, err := core.BuildFromCheckpoint(s, m)
	if err != nil {
		return err
	}
	engine, err := serve.NewEngine(model, compute.Default(), sample)
	if err != nil {
		return err
	}
	def := &serve.Model{
		Fingerprint: modelio.Fingerprint(raw),
		Meta:        m.Meta,
		Runner:      engine,
	}
	build := func(cm *modelio.Model) (serve.Runner, error) {
		bm, bsample, err := core.BuildFromCheckpoint(s, cm)
		if err != nil {
			return nil, err
		}
		return serve.NewEngine(bm, compute.Default(), bsample)
	}
	var traceW io.Writer
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: opening -trace file: %w", err)
		}
		defer f.Close()
		traceW = f
	}
	srv, err := serve.NewServer(serve.Config{
		MaxBatch:        *maxBatch,
		BatchWait:       *batchWait,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		CacheSize:       *cacheSize,
		TraceWriter:     traceW,
		EnablePprof:     *pprofOn,
	}, def, build)
	if err != nil {
		return err
	}
	defer srv.Close()
	lg.Infof("serving %s %s (fingerprint %s)",
		m.Meta["model"], ckpts[0], def.Fingerprint[:12])
	for _, path := range ckpts[1:] {
		craw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		cm, err := srv.AddModel(craw)
		if err != nil {
			return fmt.Errorf("serve: preloading %s: %w", path, err)
		}
		lg.Infof("preloaded %s %s (fingerprint %s)",
			cm.Meta["model"], path, cm.Fingerprint[:12])
	}

	// ctx fires on the first SIGTERM/SIGINT; stop() then restores the
	// default handlers, so a second signal kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *stdio {
		if err := srv.ServeLinesContext(ctx, os.Stdin, os.Stdout); err != nil {
			return err
		}
		if ctx.Err() != nil {
			stop()
			lg.Infof("serve: signal received, draining")
			if derr := srv.DrainAndClose(*drainTimeout); derr != nil {
				return exitCodeError{code: 3, msg: derr.Error()}
			}
			lg.Infof("serve: drained cleanly")
		}
		return nil
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	lg.Infof("listening on http://%s", ln.Addr())
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	lg.Infof("serve: signal received, draining (max %v)", *drainTimeout)
	srv.BeginDrain()
	start := time.Now()
	// Shutdown closes the listener and waits for in-flight handlers —
	// which wait on the batcher, still dispatching — so when it returns
	// cleanly, every accepted request has been answered.
	sdCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		srv.Close()
		return exitCodeError{code: 3, msg: fmt.Sprintf("serve: drain timed out after %v (%v); in-flight requests dropped", *drainTimeout, err)}
	}
	remaining := *drainTimeout - time.Since(start)
	if remaining < time.Millisecond {
		remaining = time.Millisecond
	}
	if derr := srv.DrainAndClose(remaining); derr != nil {
		return exitCodeError{code: 3, msg: derr.Error()}
	}
	lg.Infof("serve: drained cleanly")
	return nil
}
