package main

import (
	"io"
	"testing"
	"time"
)

// scriptedLaps is a workload of two lap kinds, as serve_requests has:
// kind 0 reports a latency, kind 1 a throughput. The first value of a
// script is the warm-up lap's; the timed laps walk the rest, round after
// round.
type scriptedLaps struct {
	latency, work []float64
	calls         [2]int
}

func (w *scriptedLaps) procs() int                    { return 0 }
func (w *scriptedLaps) setup(uint64) (float64, error) { return 0.5, nil }
func (w *scriptedLaps) check(*gates)                  {}
func (w *scriptedLaps) kinds() int                    { return 2 }
func (w *scriptedLaps) traced(*tracedRun) error       { return nil }

func (w *scriptedLaps) lap(kind int) (lapOut, error) {
	script := [][]float64{w.latency, w.work}[kind]
	v := script[0]
	if i := w.calls[kind]; i > 0 {
		v = script[1+(i-1)%(len(script)-1)]
	}
	w.calls[kind]++
	time.Sleep(time.Millisecond)
	if kind == 0 {
		return lapOut{ops: 1, latencyMS: v, countAllocs: true}, nil
	}
	return lapOut{ops: 1, workPerS: v}, nil
}

// A run's clock readings are its fastest timed lap's: the lowest latency
// and the highest throughput any lap reported, the warm-up laps left out.
func TestMeasureReportsTheFastestLap(t *testing.T) {
	w := &scriptedLaps{
		latency: []float64{1, 9, 4, 3, 8},
		work:    []float64{900, 100, 400, 700, 300},
	}
	res, err := measure(w, 1, 50*time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if w.calls[0] < 5 || w.calls[1] < 5 {
		t.Fatalf("%v laps ran, too few to walk the scripts", w.calls)
	}
	if got := res.Metrics["latency_ms"].Value; got != 3 {
		t.Errorf("latency_ms = %v, want the fastest timed lap's 3", got)
	}
	if got := res.Metrics["work_per_s"].Value; got != 700 {
		t.Errorf("work_per_s = %v, want the fastest timed lap's 700", got)
	}
	if !res.Correct || res.Metrics["setup_s"].Value != 0.5 {
		t.Errorf("result %+v", res)
	}
}
