package serve

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/faultinject"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// The streaming-equivalence harness: a StatefulRunner advancing over
// pre-binned spike planes must reproduce the batch engine (and the taped
// forward) fed the same train through snn.SpikeTrainEncoder — on one
// window and, with carried state under tiling, window by window.

// scatterSpikes returns the plane of the given shape with the linear
// elements idx set — the bits the stream binner's scatter-pack produces
// for an event window with those elements.
func scatterSpikes(idx []int, shape ...int) *tensor.SpikeTensor {
	plane := tensor.New(shape...)
	for _, i := range idx {
		plane.Data()[i] = 1
	}
	return tensor.PackSpikesOn(nil, plane)
}

// streamPlanes draws count deterministic random spike planes shaped
// [eqN, eqC, eqHW, eqHW] at roughly the given density.
func streamPlanes(rng *rand.Rand, count int, density float64) []*tensor.SpikeTensor {
	n := eqN * eqC * eqHW * eqHW
	planes := make([]*tensor.SpikeTensor, count)
	for t := range planes {
		var idx []int
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				idx = append(idx, i)
			}
		}
		planes[t] = scatterSpikes(idx, eqN, eqC, eqHW, eqHW)
	}
	return planes
}

// streamNetwork is eqNetwork with the Poisson encoder swapped for a
// replay of the given train (weights stay identical — eqNetwork is
// deterministic in its seed).
func streamNetwork(top eqTopology, adapt bool, mode snn.ReadoutMode, planes []*tensor.SpikeTensor) *snn.Network {
	net := eqNetwork(top, adapt, mode, 0.5)
	net.Encoder = &snn.SpikeTrainEncoder{Planes: planes}
	net.T = len(planes)
	return net
}

func newRunner(t *testing.T, eng *Engine) *StatefulRunner {
	t.Helper()
	r, err := eng.NewStatefulRunner(compute.PackSpikePlanes())
	if err != nil {
		t.Fatalf("NewStatefulRunner: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

func stepOK(t *testing.T, r *StatefulRunner, planes []*tensor.SpikeTensor) *tensor.Tensor {
	t.Helper()
	out, err := r.Step(planes)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	return out
}

// TestStreamEquivalenceSingleWindow pins the three paths to each other
// on one full window: taped forward == batch engine == streaming Step,
// bit for bit, across topology × neuron × readout mode.
func TestStreamEquivalenceSingleWindow(t *testing.T) {
	x := eqInput()
	for _, top := range eqTopologies {
		for _, adapt := range []bool{false, true} {
			neuron := "lif"
			if adapt {
				neuron = "alif"
			}
			for _, mode := range []snn.ReadoutMode{snn.ReadoutSpikeCount, snn.ReadoutMembrane} {
				t.Run(fmt.Sprintf("%s/%s/%s", top.name, neuron, mode), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(0x9a77, 3))
					planes := streamPlanes(rng, eqT, 0.3)
					net := streamNetwork(top, adapt, mode, planes)
					taped := train.LogitsOn(nil, net, x)
					eng, err := NewEngine(net, nil, x.Shape()[1:])
					if err != nil {
						t.Fatalf("NewEngine: %v", err)
					}
					batch, err := eng.Logits(x)
					if err != nil {
						t.Fatalf("Engine.Logits: %v", err)
					}
					assertBitIdentical(t, taped, batch)
					r := newRunner(t, eng)
					win := stepOK(t, r, planes)
					assertBitIdentical(t, batch, win)
				})
			}
		}
	}
}

// carriedWindows runs net over planes on one tape — the step sequence of
// the network's own Logits, state carried throughout — and returns each
// window's logits as a StatefulRunner forms them: the window's readout
// contributions summed in step order, scaled by LogitScale/window.
func carriedWindows(net *snn.Network, planes []*tensor.SpikeTensor, window int) []*tensor.Tensor {
	tp := autodiff.NewFrozenTapeOn(nil)
	defer tp.Release()
	st := net.NewState()
	var outs []*tensor.Tensor
	var win *autodiff.Value
	for i, p := range planes {
		c := net.Step(tp, st, tp.Spikes(p))
		if win == nil {
			win = c
		} else {
			win = tp.Add(win, c)
		}
		if (i+1)%window == 0 {
			outs = append(outs, tp.Scale(win, net.LogitScale/float64(window)).Data.Clone())
			win = nil
		}
	}
	return outs
}

// TestStreamEquivalenceCarriedHops pins the tentpole property: under
// contiguous tiling, a runner stepping window by window with carried
// membrane/adaptation state reproduces, window for window, one forward
// over the whole concatenated train — and the first window's logits
// match a from-scratch batch run over just that window's planes.
func TestStreamEquivalenceCarriedHops(t *testing.T) {
	x := eqInput()
	const windows = 3
	for _, top := range eqTopologies {
		for _, adapt := range []bool{false, true} {
			neuron := "lif"
			if adapt {
				neuron = "alif"
			}
			t.Run(fmt.Sprintf("%s/%s", top.name, neuron), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(0x9a78, 5))
				planes := streamPlanes(rng, windows*eqT, 0.3)
				net := streamNetwork(top, adapt, snn.ReadoutSpikeCount, planes)
				eng, err := NewEngine(net, nil, x.Shape()[1:])
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				full := carriedWindows(net, planes, eqT) // one forward over all windows*eqT steps
				r := newRunner(t, eng)
				var first *tensor.Tensor
				for w := 0; w < windows; w++ {
					out := stepOK(t, r, planes[w*eqT:(w+1)*eqT])
					if w == 0 {
						first = out
					}
					assertBitIdentical(t, full[w], out)
				}

				// Window 0 saw only fresh state, so its per-window logits
				// must equal a from-scratch batch run over its planes.
				net0 := streamNetwork(top, adapt, snn.ReadoutSpikeCount, planes[:eqT])
				eng0, err := NewEngine(net0, nil, x.Shape()[1:])
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				scratch, err := eng0.Logits(x)
				if err != nil {
					t.Fatalf("Engine.Logits: %v", err)
				}
				assertBitIdentical(t, scratch, first)
			})
		}
	}
}

// TestStreamReset pins that Reset returns the runner to its initial
// condition: the same window replayed after Reset yields bit-identical
// logits to the first pass.
func TestStreamReset(t *testing.T) {
	x := eqInput()
	rng := rand.New(rand.NewPCG(0x9a79, 7))
	planes := streamPlanes(rng, 2*eqT, 0.3)
	net := streamNetwork(eqTopologies[0], true, snn.ReadoutMembrane, planes)
	eng, err := NewEngine(net, nil, x.Shape()[1:])
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	r := newRunner(t, eng)
	first := stepOK(t, r, planes[:eqT])
	stepOK(t, r, planes[eqT:]) // dirty the carried state
	r.Reset()
	assertBitIdentical(t, first, stepOK(t, r, planes[:eqT]))
}

// TestStreamWindowRollback pins the failure model: with the
// stream.window fault point armed to panic on the second window, that
// window fails alone — the windows around it are bit-identical to a
// carried run that never saw the faulted window at all, proving the
// snapshot/restore left no trace of the half-applied update.
func TestStreamWindowRollback(t *testing.T) {
	x := eqInput()
	rng := rand.New(rand.NewPCG(0x9a7a, 9))
	planes := streamPlanes(rng, 3*eqT, 0.3)
	// ALIF + max pool: the topology with the most carried state (membrane
	// plus adaptation excess, packed planes through the pool).
	net := streamNetwork(eqTopologies[1], true, snn.ReadoutSpikeCount, planes)
	eng, err := NewEngine(net, nil, x.Shape()[1:])
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	// Reference: a carried run that skips window 2 entirely.
	ref := newRunner(t, eng)
	refW1 := stepOK(t, ref, planes[:eqT])
	refW3 := stepOK(t, ref, planes[2*eqT:])

	for _, action := range []string{"panic", "error"} {
		t.Run(action, func(t *testing.T) {
			inj, err := faultinject.Parse(fmt.Sprintf("%s@2=%s", FaultStreamWindow, action))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			faultinject.Set(inj)
			t.Cleanup(func() { faultinject.Set(nil) })

			r := newRunner(t, eng)
			w1 := stepOK(t, r, planes[:eqT])
			assertBitIdentical(t, refW1, w1)
			if _, err := r.Step(planes[eqT : 2*eqT]); err == nil {
				t.Fatal("faulted window did not fail")
			}
			w3 := stepOK(t, r, planes[2*eqT:])
			assertBitIdentical(t, refW3, w3)
		})
	}
}

// TestStreamNeverMaterialisesDenseInput pins what is left of the event
// path's zero-copy contract: the input planes enter the network
// packed-only, so the only dense input a window builds is the pooled
// scratch a synapse call unpacks into and hands back. Streaming a window
// through every topology must leave the caller's planes holding exactly
// the bits they were scattered with, and a second window over the same
// planes — on scratch the first one recycled — must reproduce the first
// bit for bit.
func TestStreamNeverMaterialisesDenseInput(t *testing.T) {
	x := eqInput()
	for _, top := range eqTopologies {
		t.Run(top.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0x9a7b, 11))
			planes := streamPlanes(rng, eqT, 0.9)
			want := make([]*tensor.Tensor, len(planes))
			for i, p := range planes {
				want[i] = p.DenseInto(nil, tensor.New(p.Shape()...))
			}
			net := streamNetwork(top, false, snn.ReadoutSpikeCount, planes)
			eng, err := NewEngine(net, nil, x.Shape()[1:])
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			r := newRunner(t, eng)
			first := stepOK(t, r, planes)
			r.Reset()
			assertBitIdentical(t, first, stepOK(t, r, planes))
			for i, p := range planes {
				if !p.DenseInto(nil, tensor.New(p.Shape()...)).AllClose(want[i], 0) {
					t.Fatalf("plane %d changed on the streaming path", i)
				}
			}
		})
	}
}

// TestStatefulRunnerValidation pins the runner's input contract.
func TestStatefulRunnerValidation(t *testing.T) {
	x := eqInput()
	rng := rand.New(rand.NewPCG(0x9a7d, 15))
	planes := streamPlanes(rng, eqT, 0.3)
	net := streamNetwork(eqTopologies[0], false, snn.ReadoutSpikeCount, planes)
	eng, err := NewEngine(net, nil, x.Shape()[1:])
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	r := newRunner(t, eng)
	if _, err := r.Step(nil); err == nil {
		t.Fatal("empty window must be rejected")
	}
	bad := scatterSpikes(nil, eqN, eqC, eqHW, eqHW+1)
	if _, err := r.Step([]*tensor.SpikeTensor{bad}); err == nil {
		t.Fatal("mis-shaped plane must be rejected")
	}
	r.Close()
	if _, err := r.Step(planes); err == nil {
		t.Fatal("Step on a closed runner must fail")
	}
}
