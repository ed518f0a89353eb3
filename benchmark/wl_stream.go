package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"time"
)

// streamSession is event-driven inference as one long-lived session:
// the fused LIF step driven statefully on spike planes binned straight
// from events — no encoder, batcher or JSON request, state carried
// across windows. A fused-step or slab gain shows here and in
// serve_requests, a binner gain only here, a batcher or parser gain only
// there, and neither moves the taped workloads.
type streamSession struct {
	set    *trainedSet
	events []event
	endUS  int64
	digits *datasetT // stand-in input for the density reading, see traced
}

const (
	streamWindowUS = 8000
	streamRounds   = 25 // digits 0–9 × 25 at 20 ms dwell = 5 s of events
)

func (w *streamSession) setup(seed uint64) (float64, error) {
	t0 := time.Now()
	set, err := trainCheckpoints(false)
	if err != nil {
		return 0, err
	}
	w.set = set
	w.events, w.endUS, err = glyphEvents(seed)
	if err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// glyphEvents materialises the seed's event stream as a slice.
func glyphEvents(seed uint64) ([]event, int64, error) {
	labels := make([]int, 0, 10*streamRounds)
	for i := 0; i < streamRounds; i++ {
		for d := 0; d < 10; d++ {
			labels = append(labels, d)
		}
	}
	cfg := defaultEventStreamConfig(labels, seed)
	cfg.Size = benchScale().Net.ImageSize
	src, err := newGlyphEventStream(cfg)
	if err != nil {
		return nil, 0, err
	}
	var events []event
	buf := make([]event, 4096)
	for {
		n, err := src.Read(buf)
		events = append(events, buf[:n]...)
		if err == io.EOF {
			return events, src.EndUS(), nil
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

// sliceSource is a stream.EventSource over events already in memory.
type sliceSource struct {
	events []event
	next   int
}

func (s *sliceSource) Read(buf []event) (int, error) {
	if s.next == len(s.events) {
		return 0, io.EOF
	}
	n := copy(buf, s.events[s.next:])
	s.next += n
	return n, nil
}

func (w *streamSession) check(g *gates) {
	ds, err := evalDigits(32, 1)
	if err != nil {
		g.failf("rendering digits: %v", err)
		return
	}
	w.digits = ds
	checkEngineMatchesTape(g, w.set.snn, ds.X)
}

func (w *streamSession) kinds() int { return 1 }

// procs: the lap is one goroutine.
func (w *streamSession) procs() int { return 1 }

func (w *streamSession) binnerConfig() binnerConfig {
	size := benchScale().Net.ImageSize
	return binnerConfig{H: size, W: size, Channels: 1, Steps: snnT, WindowUS: streamWindowUS}
}

// newServer is the lap's way from checkpoint bytes to a stream server
// whose sessions run the engine's stateful runner.
func (w *streamSession) newServer() (*streamServer, *engine, error) {
	eng, err := engineFromBytes(w.set.snn, serial)
	if err != nil {
		return nil, nil, err
	}
	sv, err := streamNewServer(streamConfig{Binner: w.binnerConfig()}, func() (streamRunner, error) {
		return eng.NewStatefulRunner(packSpikePlanes())
	})
	return sv, eng, err
}

// lineSink counts and digests result lines; with keep set it also keeps
// them and notes when each arrived.
type lineSink struct {
	lines  int
	digest hash.Hash64
	keep   *bytes.Buffer
	stamps []time.Time
}

func (s *lineSink) Write(p []byte) (int, error) {
	s.lines += bytes.Count(p, []byte{'\n'})
	s.digest.Write(p)
	if s.keep != nil {
		s.keep.Write(p)
		s.stamps = append(s.stamps, time.Now())
	}
	return len(p), nil
}

func (w *streamSession) windows() int { return int(w.endUS / streamWindowUS) }

func (w *streamSession) runLap(sink *lineSink) (lapOut, error) {
	t0 := time.Now()
	sv, _, err := w.newServer()
	if err != nil {
		return lapOut{}, err
	}
	dropped, err := sv.RunSource(context.Background(), &sliceSource{events: w.events}, w.endUS, sink)
	wall := time.Since(t0)
	if err != nil {
		return lapOut{}, err
	}
	out := lapOut{
		ops:         w.windows(),
		hash:        sink.digest.Sum64(),
		latencyMS:   float64(wall.Nanoseconds()) / 1e6 / float64(w.windows()),
		workPerS:    float64(w.windows()) / wall.Seconds(),
		countAllocs: true,
	}
	// Every window of the stream must have been answered.
	if dropped != 0 || sink.lines != w.windows() {
		out.failed = max(1, w.windows()-sink.lines)
	}
	return out, nil
}

func (w *streamSession) lap(int) (lapOut, error) {
	return w.runLap(&lineSink{digest: fnv.New64a()})
}

func (w *streamSession) traced(r *tracedRun) error {
	w.check(r.gates)
	ref, err := w.lap(0)
	if err != nil {
		return err
	}
	r.failed += ref.failed

	// Traced laps: the session's result lines, stamped as they arrive.
	var p50, p99, evRate []float64
	var events, silent, errLines, windows float64
	start := time.Now()
	r.lapsBegin()
	laps := 0
	for last := time.Duration(0); laps == 0 || lapsLeft(time.Since(start), last, r.budget/2); laps++ {
		sink := &lineSink{digest: fnv.New64a(), keep: &bytes.Buffer{}}
		id := r.spans.begin("stream.RunSource", 0, laps)
		out, err := w.runLap(sink)
		last = r.spans.end(id)
		if err != nil {
			return err
		}
		r.ops += out.ops
		r.failed += out.failed
		r.gates.equal("traced stream output hash", out.hash, ref.hash)
		gaps := make([]float64, 0, len(sink.stamps))
		for i := 1; i < len(sink.stamps); i++ {
			gaps = append(gaps, float64(sink.stamps[i].Sub(sink.stamps[i-1]).Nanoseconds())/1e3)
		}
		p50 = append(p50, percentile(gaps, 50))
		p99 = append(p99, percentile(gaps, 99))
		evRate = append(evRate, float64(len(w.events))/last.Seconds())
		dec := json.NewDecoder(sink.keep)
		for dec.More() {
			var line struct {
				Events *int   `json:"events"`
				Error  string `json:"error"`
			}
			if err := dec.Decode(&line); err != nil {
				return fmt.Errorf("result line: %w", err)
			}
			windows++
			switch {
			case line.Error != "":
				errLines++
			case line.Events != nil:
				events += float64(*line.Events)
				if *line.Events == 0 {
					silent++
				}
			}
		}
	}
	r.lapsEnd(laps * w.windows())
	r.set("stream.window_p50_us", median(p50))
	r.set("stream.window_p99_us", median(p99))
	r.set("stream.events_per_s", median(evRate))
	r.set("stream.events_per_window", events/windows)
	r.set("stream.silent_window_share", silent/windows)
	r.set("stream.window_errors", errLines)

	if err := w.probeStages(r); err != nil {
		return err
	}
	// The engine shares the taped network's kernels. The planes it sees
	// here come from events, not from the rate encoder; the densities are
	// read through the taped forward on rendered digits as a stand-in, and
	// the kernels probed at the session's batch of one.
	return probeEngineLayers(r, w.set.snn, w.digits.X, 1)
}

// probeStages times the session's stages on their own: the binner over
// the whole slice, the stateful step over what it binned, an empty
// session, and generating the events.
func (w *streamSession) probeStages(r *tracedRun) error {
	var err error
	var wins []*window
	binMS := medianTime(probeReps, func() {
		for _, win := range wins {
			win.Release()
		}
		wins = wins[:0]
		b, berr := streamNewBinner(w.binnerConfig())
		if berr != nil {
			err = berr
			return
		}
		keep := func(win *window) error { wins = append(wins, win); return nil }
		for _, ev := range w.events {
			if aerr := b.Add(ev, keep); aerr != nil {
				err = aerr
				return
			}
		}
		if _, derr := b.Drain(w.endUS, keep); derr != nil {
			err = derr
		}
	})
	if err != nil {
		return fmt.Errorf("binner probe: %w", err)
	}
	r.set("stream.bin_ns_per_event", binMS*1e6/float64(len(w.events)))

	_, eng, err := w.newServer()
	if err != nil {
		return err
	}
	stepMS := medianTime(probeReps, func() {
		runner, rerr := eng.NewStatefulRunner(packSpikePlanes())
		if rerr != nil {
			err = rerr
			return
		}
		defer runner.Close()
		for _, win := range wins {
			if _, serr := runner.Step(win.Planes); serr != nil {
				err = serr
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("step probe: %w", err)
	}
	r.set("stream.step_us_per_window", stepMS*1e3/float64(len(wins)))

	// Opening and closing a session that sees no events.
	sv, _, err := w.newServer()
	if err != nil {
		return err
	}
	r.set("stream.session_setup_us", 1e3*medianTime(probeReps, func() {
		if _, rerr := sv.RunSource(context.Background(), &sliceSource{}, 0, io.Discard); rerr != nil {
			err = rerr
		}
	}))
	if err != nil {
		return fmt.Errorf("empty session: %w", err)
	}

	r.set("dataset.event_gen_ns_per_event", 1e6*medianTime(3, func() {
		if _, _, gerr := glyphEvents(r.seed); gerr != nil {
			err = gerr
		}
	})/float64(len(w.events)))
	return err
}
