package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/serve"
	"snnsec/internal/snn"
	"snnsec/internal/stream"
)

// End-to-end: glyph event source → binner → stateful engine → result
// lines, with a real network. External test package so the dataset
// emitter (which imports stream) can feed the pipeline.

const (
	e2eSize  = 16
	e2eSteps = 4
)

func e2eEngine(t *testing.T) *serve.Engine {
	t.Helper()
	r := rand.New(rand.NewPCG(0xe2e, 1))
	net := &snn.Network{
		Encoder: snn.ConstantCurrentEncoder{Gain: 1},
		Hidden: []snn.Layer{{
			Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, e2eSize*e2eSize, 24)),
			Cfg: snn.NeuronConfig{Vth: 0.3, Alpha: 0.9},
		}},
		Readout:    nn.NewLinear(r, 24, 10),
		ReadoutCfg: snn.NeuronConfig{Vth: 0.3, Alpha: 0.9},
		T:          e2eSteps,
		LogitScale: 10,
	}
	eng, err := serve.NewEngine(net, nil, []int{1, e2eSize, e2eSize})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

func e2eServer(t *testing.T, eng *serve.Engine) *stream.Server {
	t.Helper()
	sv, err := stream.NewServer(stream.Config{
		Binner: stream.BinnerConfig{H: e2eSize, W: e2eSize, Steps: e2eSteps, WindowUS: 4000},
	}, func() (stream.Runner, error) {
		return eng.NewStatefulRunner(compute.PackSpikePlanes())
	})
	if err != nil {
		t.Fatalf("stream.NewServer: %v", err)
	}
	return sv
}

func e2eRun(t *testing.T, sv *stream.Server) string {
	t.Helper()
	src, err := dataset.NewGlyphEventStream(dataset.DefaultEventStreamConfig([]int{3, 7}, 42))
	if err != nil {
		t.Fatalf("NewGlyphEventStream: %v", err)
	}
	var out bytes.Buffer
	if _, err := sv.RunSource(context.Background(), src, src.EndUS(), &out); err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	return out.String()
}

// TestStreamEndToEndDeterministic pins the CI smoke's property at unit
// level: the same synthetic stream through the same checkpoint yields
// byte-identical result lines, run after run.
func TestStreamEndToEndDeterministic(t *testing.T) {
	eng := e2eEngine(t)
	sv := e2eServer(t, eng)
	first := e2eRun(t, sv)
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if want := int(40_000 / 4000); len(lines) != want {
		t.Fatalf("got %d result lines, want %d", len(lines), want)
	}
	for _, l := range lines {
		var res stream.WindowResult
		if err := json.Unmarshal([]byte(l), &res); err != nil {
			t.Fatalf("bad result line %q: %v", l, err)
		}
		if res.Pred < 0 || res.Pred > 9 || len(res.Logits) != 10 {
			t.Fatalf("implausible result: %+v", res)
		}
		if res.Events == 0 {
			t.Fatalf("window %d binned no events — emitter and binner disagree", res.Window)
		}
	}
	if second := e2eRun(t, sv); second != first {
		t.Fatal("two identical runs produced different bytes")
	}
}

// TestStreamSessionsConcurrent pins session isolation on a shared
// engine: concurrent sessions must each reproduce the serial run
// byte for byte. This is the stateful hot path the CI -race sweep
// exercises.
func TestStreamSessionsConcurrent(t *testing.T) {
	eng := e2eEngine(t)
	sv := e2eServer(t, eng)
	want := e2eRun(t, sv)
	var wg sync.WaitGroup
	got := make([]string, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, err := dataset.NewGlyphEventStream(dataset.DefaultEventStreamConfig([]int{3, 7}, 42))
			if err != nil {
				t.Errorf("NewGlyphEventStream: %v", err)
				return
			}
			var out bytes.Buffer
			if _, err := sv.RunSource(context.Background(), src, src.EndUS(), &out); err != nil {
				t.Errorf("RunSource: %v", err)
				return
			}
			got[i] = out.String()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("concurrent session %d diverged from the serial run", i)
		}
	}
}
