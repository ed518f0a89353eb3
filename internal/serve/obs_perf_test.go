package serve

import (
	"math/rand/v2"
	"testing"
	"time"

	"snnsec/internal/compute"
	"snnsec/internal/nn"
	"snnsec/internal/obs"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// perfNet is the fixture of the overhead gate: a small dense-layer SNN at
// the paper's default window T=64, evaluated one sample at a time — the
// latency-serving shape, where a forward is at its cheapest and a fixed
// per-request cost at its most visible.
func perfNet() *snn.Network {
	r := rand.New(rand.NewPCG(eqSeed, 7))
	cfg := snn.NeuronConfig{Vth: 0.3, Alpha: 0.9}
	return &snn.Network{
		Encoder: snn.NewNormalizedPoissonEncoder(0.5, 0, 1, eqSeed, 11),
		Hidden: []snn.Layer{
			{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, eqC*eqHW*eqHW, 8)), Cfg: cfg},
			{Syn: nn.NewLinear(r, 8, 8), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 8, eqOut),
		ReadoutCfg: cfg,
		Mode:       snn.ReadoutSpikeCount,
		T:          64,
		LogitScale: 10,
	}
}

func perfInput(n int) *tensor.Tensor {
	x := tensor.New(n, eqC, eqHW, eqHW)
	d := x.Data()
	for i := range d {
		d[i] = 1
	}
	return x
}

// measureForwards runs fn repeatedly for at least minWall and returns
// forwards per second.
func measureForwards(minWall time.Duration, fn func()) float64 {
	fn() // warm up arenas and caches
	iters := 0
	start := time.Now()
	for time.Since(start) < minWall {
		fn()
		iters++
	}
	return float64(iters) / time.Since(start).Seconds()
}

// TestObsDisarmedOverheadGate is the CI overhead gate for the
// observability layer: the disarmed instrument calls one request incurs
// on the serve hot path must cost ≤1% of that request's forward pass on
// the single-sample fixture. Instrumentation cannot be compiled out, so
// the gate measures the two sides directly: the per-request instrument
// bundle (every metric write a request triggers through enqueue →
// dispatch → forward → respond) against the per-forward service time of
// the engine on that fixture.
func TestObsDisarmedOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("perf gate skipped in -short mode")
	}
	obs.Disarm() // the gate measures the disarmed path
	// The bundle mirrors the hot path: queue-gauge updates at enqueue,
	// next and coalesce; batch-occupancy, coalesce-size and forward-
	// latency observations; the deadline/reject counter check the error
	// paths share; and the per-model labelled counter at respond time.
	requestsOK := metricRequests.With("default", "ok")
	bundle := func() {
		metricQueueDepth.Set(1)
		metricQueueDepth.Set(0)
		metricQueueDepth.Set(0)
		metricBatchSize.Observe(1)
		metricCoalescedCalls.Observe(1)
		metricForwardSeconds.Observe(0.001)
		metricRejected.Inc()
		requestsOK.Inc()
	}
	const iters = 1_000_000
	bundle() // warm up
	start := time.Now()
	for i := 0; i < iters; i++ {
		bundle()
	}
	perBundle := time.Since(start).Seconds() / iters
	if metricRejected.Value() != 0 {
		t.Fatal("disarmed counter advanced — overhead measurement is invalid")
	}

	net := perfNet()
	eng, err := NewEngine(net, compute.NewSerial(), perfInput(1).Shape()[1:])
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	x := perfInput(1)
	fps := measureForwards(2*time.Second, func() {
		net.Encoder = snn.NewNormalizedPoissonEncoder(0.5, 0, 1, eqSeed, 11)
		if _, err := eng.Logits(x); err != nil {
			t.Fatal(err)
		}
	})
	perForward := 1 / fps
	overhead := perBundle / perForward
	t.Logf("disarmed bundle %.1f ns, forward %.0f µs, overhead %.4f%%",
		perBundle*1e9, perForward*1e6, overhead*100)
	if overhead > 0.01 {
		t.Fatalf("disarmed instrumentation overhead %.4f%% above the 1%% gate", overhead*100)
	}
}
