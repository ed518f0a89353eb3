package serve

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// The forward-equivalence harness. There is one forward pass, so what is
// left to pin is the tape underneath it: the engine runs the model on a
// frozen tape it reuses — constants only, no pullback built, recycled
// nodes, arena buffers from the call before — and must reproduce, bit for
// bit, a fresh recording tape with the input as a Var, where every
// closure is built and nothing is skipped, across neuron models, readout
// modes, topologies, spike densities and backends. This
// is the pin that lets every other serve feature (batching, caching, the
// CLI) trust the engine.

const (
	eqC    = 1 // input channels
	eqHW   = 8 // input height/width
	eqT    = 4 // time window
	eqN    = 3 // batch size
	eqOut  = 4 // classes
	eqSeed = 0x5eed
)

// eqTopology builds the hidden stack + readout for one structural case.
type eqTopology struct {
	name   string
	hidden func(r *rand.Rand) []nn.Layer
	// readoutIn is the flattened feature count feeding the readout.
	readoutIn int
}

var eqTopologies = []eqTopology{
	{
		// conv → LIF → avgpool+flatten+linear → LIF → linear readout:
		// the LeNet-style shape with average pooling.
		name: "pooled_avg",
		hidden: func(r *rand.Rand) []nn.Layer {
			return []nn.Layer{
				nn.NewConv2D(r, eqC, 2, 3, 1, 1), // [N,2,8,8]
				nn.NewSequential(nn.AvgPool{K: 2}, nn.Flatten{}, nn.NewLinear(r, 2*4*4, 16)),
			}
		},
		readoutIn: 16,
	},
	{
		// Same stack with max pooling, which threads a packed spike
		// plane *through* the pool (SpikeMaxPool2DOn re-emits one).
		name: "pooled_max",
		hidden: func(r *rand.Rand) []nn.Layer {
			return []nn.Layer{
				nn.NewConv2D(r, eqC, 2, 3, 1, 1),
				nn.NewSequential(nn.MaxPool{K: 2}, nn.Flatten{}, nn.NewLinear(r, 2*4*4, 16)),
			}
		},
		readoutIn: 16,
	},
	{
		// Pool-free: flatten straight into dense layers.
		name: "pool_free",
		hidden: func(r *rand.Rand) []nn.Layer {
			return []nn.Layer{
				nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, eqC*eqHW*eqHW, 24)),
				nn.NewLinear(r, 24, 16),
			}
		},
		readoutIn: 16,
	},
}

// eqNetwork assembles a full spiking classifier for one case. gain is
// the Poisson rate on an all-ones input, i.e. the exact input spike
// density.
func eqNetwork(top eqTopology, adapt bool, mode snn.ReadoutMode, gain float64) *snn.Network {
	r := rand.New(rand.NewPCG(eqSeed, 7))
	layers := top.hidden(r)
	hidden := make([]snn.Layer, len(layers))
	for i, l := range layers {
		hidden[i] = snn.Layer{
			Syn: l,
			// Reset modes alternate so both are always exercised.
			Cfg: snn.NeuronConfig{Vth: 0.3, Alpha: 0.9, Reset: snn.ResetMode(i % 2)},
		}
		if adapt {
			hidden[i].Adapt = &snn.Adaptation{Step: 0.2, Decay: 0.8}
		}
	}
	return &snn.Network{
		Encoder:    snn.NewNormalizedPoissonEncoder(gain, 0, 1, eqSeed, 11),
		Hidden:     hidden,
		Readout:    nn.NewLinear(r, top.readoutIn, eqOut),
		ReadoutCfg: snn.NeuronConfig{Vth: 0.3, Alpha: 0.9},
		Mode:       mode,
		T:          eqT,
		LogitScale: 10,
	}
}

// eqInput is all ones, so the Poisson gain is the spike density.
func eqInput() *tensor.Tensor { return tensor.Ones(eqN, eqC, eqHW, eqHW) }

// poisonBackend fills every buffer with NaN on its way out of the arena
// and on its way back: a forward that reads an element it has not
// written, or a value of the request before, computes NaN where the
// plain backend computes a number.
type poisonBackend struct{ compute.Backend }

func poison(buf []float64) {
	for i := range buf {
		buf[i] = math.NaN()
	}
}

func (p poisonBackend) Get(n int) []float64 {
	buf := p.Backend.Get(n)
	poison(buf)
	return buf
}

func (p poisonBackend) Put(buf []float64) {
	poison(buf)
	p.Backend.Put(buf)
}

// recordedLogits is the reference forward: a fresh recording tape, the
// input a Var, so every parameter and every activation requires a
// gradient and every operation builds its pullback.
func recordedLogits(be compute.Backend, model nn.Classifier, x *tensor.Tensor) *tensor.Tensor {
	tp := autodiff.NewTapeOn(be)
	defer tp.Release()
	return model.Logits(tp, tp.Var(x)).Data.Clone()
}

// engineBatches are the batch sizes of three consecutive calls on one
// engine. The first fills its node slab and the arena; the second and
// third run on recycled nodes and poisoned buffers of another size.
var engineBatches = []int{eqN, 1, eqN + 2}

// runBoth builds one engine for model on the poisoning form of be (nil
// selects the default backend) and, per batch size, evaluates the
// recording reference on be and then the engine on input(n), calling
// before — reseeding a stateful encoder — ahead of each pass so both
// consume identical spike trains. It returns the pairs in call order.
func runBoth(t *testing.T, model nn.Classifier, be compute.Backend, input func(n int) *tensor.Tensor, before func()) (recorded, engine []*tensor.Tensor) {
	t.Helper()
	if be == nil {
		be = compute.Default()
	}
	eng, err := NewEngine(model, poisonBackend{be}, input(1).Shape()[1:])
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, n := range engineBatches {
		x := input(n)
		before()
		recorded = append(recorded, recordedLogits(be, model, x))
		before()
		got, err := eng.Logits(x)
		if err != nil {
			t.Fatalf("Engine.Logits at batch %d: %v", n, err)
		}
		engine = append(engine, got)
	}
	return recorded, engine
}

// runBothSNN is runBoth for an eqNetwork on all-ones inputs, with a
// freshly seeded Poisson encoder ahead of each pass.
func runBothSNN(t *testing.T, net *snn.Network, be compute.Backend) (recorded, engine []*tensor.Tensor) {
	t.Helper()
	gain := net.Encoder.(*snn.PoissonEncoder).Gain
	return runBoth(t, net, be,
		func(n int) *tensor.Tensor { return tensor.Ones(n, eqC, eqHW, eqHW) },
		func() { net.Encoder = snn.NewNormalizedPoissonEncoder(gain, 0, 1, eqSeed, 11) })
}

func assertAllBitIdentical(t *testing.T, recorded, engine []*tensor.Tensor) {
	t.Helper()
	for i := range recorded {
		assertBitIdentical(t, recorded[i], engine[i])
	}
}

func assertBitIdentical(t *testing.T, taped, free *tensor.Tensor) {
	t.Helper()
	td, fd := taped.Data(), free.Data()
	if len(td) != len(fd) {
		t.Fatalf("logit count: reference %v, got %v", taped.Shape(), free.Shape())
	}
	for i := range td {
		if math.Float64bits(td[i]) != math.Float64bits(fd[i]) {
			t.Fatalf("logit %d differs: reference %v (%#x) vs %v (%#x)",
				i, td[i], math.Float64bits(td[i]), fd[i], math.Float64bits(fd[i]))
		}
	}
}

// TestForwardEquivalence is the pinning suite: every combination of
// topology × neuron model × readout mode × input spike density ×
// backend must be bit-identical between the recording tape and the
// engine's reused frozen one.
func TestForwardEquivalence(t *testing.T) {
	backends := map[string]compute.Backend{
		"serial":   compute.NewSerial(),
		"parallel": compute.NewParallel(4),
	}
	for _, top := range eqTopologies {
		for _, adapt := range []bool{false, true} {
			neuron := "lif"
			if adapt {
				neuron = "alif"
			}
			for _, mode := range []snn.ReadoutMode{snn.ReadoutSpikeCount, snn.ReadoutMembrane} {
				for _, gain := range []float64{0, 0.1, 0.5, 1} {
					for beName, be := range backends {
						name := fmt.Sprintf("%s/%s/%s/density=%v/%s", top.name, neuron, mode, gain, beName)
						t.Run(name, func(t *testing.T) {
							recorded, engine := runBothSNN(t, eqNetwork(top, adapt, mode, gain), be)
							assertAllBitIdentical(t, recorded, engine)
						})
					}
				}
			}
		}
	}
}

// TestForwardEquivalenceDenseDispatch pins equivalence on the default
// backend (nil), the one the serving path runs on, where the table above
// names explicit widths: every synapse takes the dense kernel, the only
// one there is, and only the pools read packed planes.
func TestForwardEquivalenceDenseDispatch(t *testing.T) {
	for _, top := range eqTopologies {
		t.Run(top.name, func(t *testing.T) {
			recorded, engine := runBothSNN(t, eqNetwork(top, false, snn.ReadoutSpikeCount, 0.5), nil)
			assertAllBitIdentical(t, recorded, engine)
		})
	}
}

// halve is a layer the engine has never heard of: with one forward pass
// any nn.Layer serves, there is no list of known types to be on.
type halve struct{}

func (halve) Forward(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value { return tp.Scale(x, 0.5) }
func (halve) Params() []*nn.Param                                          { return nil }

// TestForwardEquivalenceCNN covers the non-spiking path: a ReLU CNN with
// both pool kinds and a layer type defined here.
func TestForwardEquivalenceCNN(t *testing.T) {
	r := rand.New(rand.NewPCG(eqSeed, 13))
	model := nn.NewSequential(
		nn.NewConv2D(r, eqC, 2, 3, 1, 1),
		nn.ReLU{},
		nn.MaxPool{K: 2},
		nn.NewConv2D(r, 2, 3, 3, 1, 1),
		nn.ReLU{},
		halve{},
		nn.AvgPool{K: 2},
		nn.Flatten{},
		nn.NewLinear(r, 3*2*2, eqOut),
	)
	rr := rand.New(rand.NewPCG(3, 4))
	recorded, engine := runBoth(t, model, nil, func(n int) *tensor.Tensor {
		return tensor.RandU(rr, -1, 1, n, eqC, eqHW, eqHW)
	}, func() {})
	assertAllBitIdentical(t, recorded, engine)
}

// TestEngineRejectsUnsupported pins construction-time validation: an
// invalid spiking network, or an engine with no sample shape, must fail
// at NewEngine, not mid-request.
func TestEngineRejectsUnsupported(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	if _, err := NewEngine(&snn.Network{}, nil, []int{4}); err == nil {
		t.Fatal("want error for a spiking network without an encoder")
	}
	if _, err := NewEngine(nn.NewSequential(nn.NewLinear(r, 4, 2)), nil, nil); err == nil {
		t.Fatal("want error for empty sample shape")
	}
}

// TestEngineInputValidation pins shape checking on the request path.
func TestEngineInputValidation(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	eng, err := NewEngine(nn.NewSequential(nn.NewLinear(r, 4, 2)), nil, []int{4})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.Logits(tensor.New(2, 5)); err == nil {
		t.Fatal("want error for wrong sample length")
	}
	if _, err := eng.Logits(tensor.New(2, 2, 2)); err == nil {
		t.Fatal("want error for wrong rank")
	}
	if _, err := eng.Logits(nil); err == nil {
		t.Fatal("want error for nil input")
	}
}
