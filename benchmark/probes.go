package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// probeReps is how often each probe repeats; it reports the median.
const probeReps = 15

// stepProbe is one training/attack step of a classifier taken apart from
// outside: forward to the loss on a fresh tape, backward, release. For an
// SNN the forward is also replayed timestep by timestep to time the
// encoder and the LIF steps on their own.
type stepProbe struct {
	forwardMS, backwardMS float64
	encodeMS, lifMS       float64    // per forward pass: all T steps, all populations
	tapeAllocKB           float64    // allocated by forward+backward+release
	density               [5]float64 // in, l1, l2, l3, out; exact
}

func zeroGrads(m classifier) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// probeForwardBackward times Logits+loss and Backward. inputGrad makes x
// a variable, as the attacks do, so the backward pass reaches the pixels.
func probeForwardBackward(m classifier, x *tensorT, y []int, inputGrad bool) (fwdMS, bwdMS, allocKB float64) {
	fwd, bwd, alloc := make([]float64, probeReps), make([]float64, probeReps), make([]float64, probeReps)
	for i := 0; i < probeReps; i++ {
		zeroGrads(m)
		m0 := readMem()
		tp := newTapeOn(serial)
		t0 := time.Now()
		xv := tp.Const(x)
		if inputGrad {
			xv = tp.Var(x)
		}
		loss := tp.SoftmaxCrossEntropy(m.Logits(tp, xv), y)
		t1 := time.Now()
		tp.Backward(loss)
		t2 := time.Now()
		tp.Release()
		fwd[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
		bwd[i] = float64(t2.Sub(t1).Nanoseconds()) / 1e6
		alloc[i] = float64(readMem().bytes-m0.bytes) / 1000
	}
	return median(fwd), median(bwd), median(alloc)
}

// probeStep takes one step of an SNN apart.
func probeStep(net *snnNetwork, x *tensorT, y []int, inputGrad bool) stepProbe {
	var p stepProbe
	p.forwardMS, p.backwardMS, p.tapeAllocKB = probeForwardBackward(net, x, y, inputGrad)

	// The same T-step loop Network.Logits runs, written out so the
	// encoder and LIF calls can be timed from here.
	enc, lif := make([]float64, probeReps), make([]float64, probeReps)
	for i := 0; i < probeReps; i++ {
		tp := newTapeOn(serial)
		xv := tp.Const(x)
		membranes := make([]*value, len(net.Hidden))
		var outState *value
		var encD, lifD time.Duration
		for t := 0; t < net.T; t++ {
			t0 := time.Now()
			h := net.Encoder.Encode(tp, xv, t)
			encD += time.Since(t0)
			for l := range net.Hidden {
				cur := net.Hidden[l].Syn.Forward(tp, h)
				if membranes[l] == nil {
					membranes[l] = tp.Const(newTensor(cur.Data.Shape()...))
				}
				t0 = time.Now()
				h, membranes[l] = lifStep(tp, net.Hidden[l].Cfg, cur, membranes[l])
				lifD += time.Since(t0)
			}
			out := net.Readout.Forward(tp, h)
			if outState == nil {
				outState = tp.Const(newTensor(out.Data.Shape()...))
			}
			t0 = time.Now()
			_, outState = lifStep(tp, net.ReadoutCfg, out, outState)
			lifD += time.Since(t0)
		}
		tp.Release()
		enc[i] = float64(encD.Nanoseconds()) / 1e6
		lif[i] = float64(lifD.Nanoseconds()) / 1e6
	}
	p.encodeMS, p.lifMS = median(enc), median(lif)
	p.density = spikeDensities(net, x)
	return p
}

// spikeDensities reads the exact firing densities of one forward pass:
// the encoder plane by counting it, the LIF populations through
// Network.Record.
func spikeDensities(net *snnNetwork, x *tensorT) [5]float64 {
	var d [5]float64
	tp := newTapeOn(serial)
	xv := tp.Const(x)
	var ones float64
	plane := net.Encoder.Encode(tp, xv, 0).Data.Data()
	for _, v := range plane {
		ones += v
	}
	d[0] = ones / float64(len(plane))
	rec := &snnTrace{}
	net.Record = rec
	net.Logits(tp, xv)
	net.Record = nil
	tp.Release()
	for l := 0; l < 3 && l < len(rec.SpikeRates); l++ {
		d[1+l] = rec.SpikeRates[l]
	}
	d[4] = rec.OutputRate
	return d
}

func (p stepProbe) report(r *tracedRun) {
	r.set("snn.forward_taped_ms", p.forwardMS)
	r.set("autodiff.backward_ms", p.backwardMS)
	r.set("snn.encode_ms", p.encodeMS)
	r.set("snn.lif_step_ms", p.lifMS)
	r.set("autodiff.tape_alloc_kb_per_step", p.tapeAllocKB)
	reportDensity(r, p.density)
}

func reportDensity(r *tracedRun, density [5]float64) {
	for i, name := range []string{"in", "l1", "l2", "l3", "out"} {
		r.set("snn.spike_density_"+name, density[i])
	}
}

// probeEngineLayers is the per-layer reading of a workload that runs the
// SNN only through the tape-free engine: the firing densities of its
// inputs x, the tensor kernels at its batch size and those densities,
// and the default-vs-serial backend ratio.
func probeEngineLayers(r *tracedRun, raw []byte, x *tensorT, batch int) error {
	net, err := snnFromBytes(raw)
	if err != nil {
		return err
	}
	density := spikeDensities(net, x)
	reportDensity(r, density)
	probeKernels(r, batch, density)
	return probeBackends(r, net, x)
}

// firstSample returns x's first sample as a batch of one.
func firstSample(x *tensorT) *tensorT {
	return x.Slice(0).Reshape(append([]int{1}, x.Shape()[1:]...)...)
}

// probeOptimizer times one Adam step over the model's parameters, with
// gradients in place from a real backward pass.
func probeOptimizer(m classifier, x *tensorT, y []int) float64 {
	zeroGrads(m)
	tp := newTapeOn(serial)
	tp.Backward(tp.SoftmaxCrossEntropy(m.Logits(tp, tp.Const(x)), y))
	tp.Release()
	opt := newAdam(benchScale().LR)
	params := m.Params()
	return medianTime(probeReps, func() { opt.Step(params) })
}

// bernoulliPlane draws a 0/1 tensor of the given density and packs it.
func bernoulliPlane(rng *rand.Rand, density float64, shape ...int) (*tensorT, *spikeTensor) {
	t := newTensor(shape...)
	d := t.Data()
	for i := range d {
		if rng.Float64() < density {
			d[i] = 1
		}
	}
	return t, packSpikesOn(serial, t)
}

// probeKernels times the tensor kernels under the spiking LeNet at the
// workload's own batch size and the measured plane densities: the dense
// 3×3 convolution behind the first pool (forward and backward), the
// spike convolution on the encoder plane, the dense matmul of the first
// fully connected layer, the spike matmul of the readout, and packing
// the largest LIF plane.
func probeKernels(r *tracedRun, batch int, density [5]float64) {
	net := benchScale().Net
	rng := newRand(r.seed, 0xbe7c4)
	half, quarter := net.ImageSize/2, net.ImageSize/4

	x2 := randN(rng, 0, 1, batch, net.C1, half, half)
	w2 := randN(rng, 0, 0.1, net.C2, net.C1, 3, 3)
	b2 := newTensor(net.C2)
	g2 := randN(rng, 0, 1, batch, net.C2, half, half)
	p2 := convParams{Stride: 1, Padding: 1}
	convFwd := medianTime(probeReps, func() { conv2DOn(serial, x2, w2, b2, p2) })
	r.set("tensor.conv_fwd_ms", convFwd)
	r.set("tensor.conv_bwd_ms", medianTime(probeReps, func() { conv2DBackwardOn(serial, x2, w2, g2, p2, true) }))
	wide := newBackend(runtime.NumCPU())
	undo := setProcs(runtime.NumCPU()) // a run held to one P would make this ratio meaningless
	r.set("compute.parallel_speedup_conv", convFwd/medianTime(probeReps, func() { conv2DOn(wide, x2, w2, b2, p2) }))
	undo()

	_, sp1 := bernoulliPlane(rng, density[0], batch, 1, net.ImageSize, net.ImageSize)
	w1 := randN(rng, 0, 0.1, net.C1, 1, 5, 5)
	b1 := newTensor(net.C1)
	r.set("tensor.spike_conv_fwd_ms", medianTime(probeReps, func() { spikeConv2DOn(serial, sp1, w1, b1, convParams{Stride: 1, Padding: 2}) }))

	flat := net.C2 * quarter * quarter
	x3 := randN(rng, 0, 1, batch, flat)
	w3 := randN(rng, 0, 0.1, flat, net.FC1)
	r.set("tensor.matmul_ms", medianTime(probeReps, func() { matMulOn(serial, x3, w3) }))

	_, sp3 := bernoulliPlane(rng, density[3], batch, net.FC1)
	w4 := randN(rng, 0, 0.1, net.FC1, 10)
	r.set("tensor.spike_matmul_ms", medianTime(probeReps, func() { spikeMatMulOn(serial, sp3, w4) }))

	plane1, _ := bernoulliPlane(rng, density[1], batch, net.C1, net.ImageSize, net.ImageSize)
	r.set("tensor.pack_spikes_ms", medianTime(probeReps, func() { packSpikesOn(serial, plane1) }))
}

// probeBackends times the tape-free engine's batch-1 forward on the
// process default backend against the serial one. The ratio is the price
// of steadiness rule 2: while it is above 1, running the benchmark's
// engines on the default backend would only add noise and time.
func probeBackends(r *tracedRun, model classifier, x *tensorT) error {
	defer setProcs(runtime.NumCPU())() // the default backend needs the Ps a run held to one lacks
	one := firstSample(x)
	var ms [2]float64
	for i, be := range []backend{defaultBackend(), serial} {
		eng, err := serveNewEngine(model, be, x.Shape()[1:])
		if err != nil {
			return err
		}
		var ferr error
		ms[i] = medianTime(probeReps, func() {
			if _, err := eng.Logits(one); err != nil {
				ferr = err
			}
		})
		if ferr != nil {
			return ferr
		}
	}
	r.set("compute.default_vs_serial_forward", ms[0]/ms[1])
	return nil
}

// dispatchCounts reads snnsec_compute_dispatch_total from the default
// registry's exposition: decisions that chose the sparse kernels, and all
// decisions.
func dispatchCounts() (sparse, total float64, err error) {
	var buf bytes.Buffer
	if err := defaultRegistry().WritePrometheus(&buf); err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "snnsec_compute_dispatch_total{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("dispatch counter line %q: %w", line, err)
		}
		total += v
		if strings.Contains(line, `choice="sparse"`) {
			sparse += v
		}
	}
	return sparse, total, sc.Err()
}
