package analysis

import (
	"bytes"
	"strings"
	"testing"

	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

func smallNet(vth float64, T int) *snn.Network {
	r := tensor.NewRand(5, 0)
	cfg := snn.NeuronConfig{Vth: vth, Alpha: 0.9, Surrogate: snn.FastSigmoid{Beta: 10}}
	return &snn.Network{
		Encoder: snn.ConstantCurrentEncoder{Gain: 1},
		Hidden: []snn.Layer{
			{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, 64, 16)), Cfg: cfg},
			{Syn: nn.NewLinear(r, 16, 16), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 16, 10),
		ReadoutCfg: cfg,
		T:          T,
		LogitScale: 10,
	}
}

func smallBatch(t *testing.T) (*tensor.Tensor, []int, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.DefaultSynthConfig(32, 3)
	cfg.Size = 8
	ds, err := dataset.SynthDigits(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	b := ds.Batches(16)[0]
	return b.X, b.Y, ds
}

func TestActivityProfileBasics(t *testing.T) {
	x, _, _ := smallBatch(t)
	p := Activity(smallNet(0.5, 6), x)
	if len(p.LayerRates) != 2 {
		t.Fatalf("layer rates = %d", len(p.LayerRates))
	}
	for i, r := range p.LayerRates {
		if r < 0 || r > 1 {
			t.Errorf("layer %d rate %v out of [0,1]", i, r)
		}
	}
	if p.MeanRate < 0 || p.MeanRate > 1 {
		t.Errorf("mean rate %v", p.MeanRate)
	}
}

func TestActivityDetectsSilentNetwork(t *testing.T) {
	x, _, _ := smallBatch(t)
	p := Activity(smallNet(1e9, 4), x)
	if p.SilentFraction != 1 {
		t.Errorf("silent fraction = %v, want 1", p.SilentFraction)
	}
	if p.MeanRate != 0 {
		t.Errorf("silent network rate = %v", p.MeanRate)
	}
}

func TestActivityRestoresRecorder(t *testing.T) {
	x, _, _ := smallBatch(t)
	net := smallNet(0.5, 4)
	Activity(net, x)
	if net.Record != nil {
		t.Error("Activity leaked its recorder into the network")
	}
}

func TestActivityRateDecreasesWithVth(t *testing.T) {
	x, _, _ := smallBatch(t)
	lo := Activity(smallNet(0.25, 6), x)
	hi := Activity(smallNet(2.5, 6), x)
	if hi.MeanRate > lo.MeanRate {
		t.Errorf("raising Vth increased firing: %v -> %v", lo.MeanRate, hi.MeanRate)
	}
}

func TestInputGradientsSilentMeansMasked(t *testing.T) {
	x, y, _ := smallBatch(t)
	g := InputGradients(smallNet(1e9, 4), x, y)
	// A silent network has (almost) no gradient path to the pixels; with
	// the sharp surrogate far from threshold the gradient is tiny.
	if g.MeanAbs > 1e-3 {
		t.Errorf("silent network leaks gradient: mean |g| = %v", g.MeanAbs)
	}
	live := InputGradients(smallNet(0.5, 6), x, y)
	if live.MeanAbs <= g.MeanAbs {
		t.Errorf("live network gradient (%v) not above silent (%v)", live.MeanAbs, g.MeanAbs)
	}
	if live.MaxAbs < live.MedianAbs {
		t.Error("max below median")
	}
	if g.ZeroFraction < 0 || g.ZeroFraction > 1 {
		t.Errorf("zero fraction %v", g.ZeroFraction)
	}
}

func TestSweepVthRestoresThresholds(t *testing.T) {
	_, _, ds := smallBatch(t)
	net := smallNet(0.7, 4)
	rows := SweepVth(net, ds, []float64{0.25, 1, 4}, 8)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if net.Hidden[0].Cfg.Vth != 0.7 || net.ReadoutCfg.Vth != 0.7 {
		t.Error("SweepVth did not restore the original thresholds")
	}
	// Firing rate must be non-increasing across the sweep.
	for i := 1; i < len(rows); i++ {
		if rows[i].Profile.MeanRate > rows[i-1].Profile.MeanRate+1e-9 {
			t.Errorf("rate increased from Vth=%g to %g", rows[i-1].Vth, rows[i].Vth)
		}
	}
}

func TestWriteVthSweep(t *testing.T) {
	_, _, ds := smallBatch(t)
	rows := SweepVth(smallNet(0.5, 4), ds, []float64{0.5, 2}, 8)
	var buf bytes.Buffer
	WriteVthSweep(&buf, rows)
	s := buf.String()
	if !strings.Contains(s, "Vth") || !strings.Contains(s, "grad_mean") {
		t.Errorf("sweep table incomplete:\n%s", s)
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 3 {
		t.Errorf("sweep table rows:\n%s", s)
	}
}
