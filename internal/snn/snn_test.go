package snn

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"snnsec/internal/autodiff"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// defaultNeuronConfig is a LIF population with Vth 1, leak 0.9 and the
// default surrogate.
func defaultNeuronConfig() NeuronConfig {
	return NeuronConfig{Vth: 1, Alpha: 0.9, Surrogate: DefaultSurrogate()}
}

// backwardSum backpropagates the sum of v's elements: v seeded with ones.
func backwardSum(tp *autodiff.Tape, v *autodiff.Value) {
	tp.BackwardWithSeed(v, tensor.Ones(v.Shape()...))
}

// dense returns the 0/1 view of a packed plane.
func dense(s *tensor.SpikeTensor) *tensor.Tensor {
	return s.DenseInto(nil, tensor.New(s.Shape()...))
}

func TestSurrogatePeaksAtThreshold(t *testing.T) {
	for _, s := range []Surrogate{FastSigmoid{Beta: 10}, SigmoidPrime{Beta: 5}, PiecewiseLinear{Width: 0.5}} {
		at0 := s.Grad(0)
		if at0 <= 0 {
			t.Errorf("%s: Grad(0) = %v, want > 0", s.Name(), at0)
		}
		for _, u := range []float64{-2, -0.5, 0.5, 2} {
			if g := s.Grad(u); g > at0+1e-12 {
				t.Errorf("%s: Grad(%v)=%v exceeds Grad(0)=%v", s.Name(), u, g, at0)
			}
		}
	}
}

func TestSurrogateSymmetry(t *testing.T) {
	f := func(u float64) bool {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return true
		}
		u = math.Mod(u, 10)
		fs := FastSigmoid{Beta: 7}
		return math.Abs(fs.Grad(u)-fs.Grad(-u)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSurrogateDecaysToZero(t *testing.T) {
	fs := FastSigmoid{Beta: 100}
	if fs.Grad(10) > 1e-4 {
		t.Errorf("fast sigmoid at u=10: %v, want ≈0", fs.Grad(10))
	}
	pl := PiecewiseLinear{Width: 0.3}
	if pl.Grad(0.31) != 0 {
		t.Errorf("triangular support exceeded: %v", pl.Grad(0.31))
	}
}

func TestNeuronConfigValidate(t *testing.T) {
	bad := []NeuronConfig{
		{Vth: 0, Alpha: 0.9},
		{Vth: -1, Alpha: 0.9},
		{Vth: 1, Alpha: 0},
		{Vth: 1, Alpha: 1.5},
	}
	for _, c := range bad {
		cc := c
		if err := (&cc).Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
	good := NeuronConfig{Vth: 1, Alpha: 1}
	if err := (&good).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if good.Surrogate == nil {
		t.Error("Validate did not fill default surrogate")
	}
}

// TestValidateRefusesNonFinite: NaN fails every ordered comparison, so a
// `<= 0` guard lets it through; each refusal must name its field.
func TestValidateRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		cfg   NeuronConfig
		field string
	}{
		{NeuronConfig{Vth: nan, Alpha: 0.9}, "Vth"},
		{NeuronConfig{Vth: inf, Alpha: 0.9}, "Vth"},
		{NeuronConfig{Vth: -inf, Alpha: 0.9}, "Vth"},
		{NeuronConfig{Vth: 1, Alpha: nan}, "Alpha"},
		{NeuronConfig{Vth: 1, Alpha: inf}, "Alpha"},
		{NeuronConfig{Vth: 1, Alpha: -inf}, "Alpha"},
		{NeuronConfig{Vth: 1, Alpha: -0.5}, "Alpha"},
	} {
		cfg := c.cfg
		if err := (&cfg).Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("Vth %g Alpha %g: error %v, want one naming %s", c.cfg.Vth, c.cfg.Alpha, err, c.field)
		}
	}
}

func TestLIFStepSubthresholdIntegration(t *testing.T) {
	cfg := NeuronConfig{Vth: 1, Alpha: 0.5}
	tp := autodiff.NewTapeOn(nil)
	i1 := tp.Const(tensor.FromSlice([]float64{0.4}, 1))
	v0 := tp.Const(tensor.New(1))
	s, v := LIFStep(tp, cfg, i1, v0)
	if s.Data.Item() != 0 {
		t.Errorf("subthreshold spike emitted")
	}
	if math.Abs(v.Data.Item()-0.4) > 1e-12 {
		t.Errorf("membrane = %v, want 0.4", v.Data.Item())
	}
	// Second step: 0.5*0.4 + 0.4 = 0.6, still subthreshold.
	s2, v2 := LIFStep(tp, cfg, tp.Const(tensor.FromSlice([]float64{0.4}, 1)), v)
	if s2.Data.Item() != 0 || math.Abs(v2.Data.Item()-0.6) > 1e-12 {
		t.Errorf("step2: s=%v v=%v, want 0 / 0.6", s2.Data.Item(), v2.Data.Item())
	}
}

func TestLIFStepFiresAndResetsZero(t *testing.T) {
	cfg := NeuronConfig{Vth: 1, Alpha: 1}
	tp := autodiff.NewTapeOn(nil)
	s, v := LIFStep(tp, cfg, tp.Const(tensor.FromSlice([]float64{1.5}, 1)), tp.Const(tensor.New(1)))
	if s.Data.Item() != 1 {
		t.Error("neuron did not fire above threshold")
	}
	if v.Data.Item() != 0 {
		t.Errorf("reset-to-zero membrane = %v", v.Data.Item())
	}
}

func TestLIFSpikesAreBinary(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRand(seed, 42)
		cfg := defaultNeuronConfig()
		tp := autodiff.NewTapeOn(nil)
		cur := tp.Const(tensor.RandN(r, 0, 2, 3, 4))
		mem := tp.Const(tensor.RandN(r, 0, 1, 3, 4))
		s, _ := LIFStep(tp, cfg, cur, mem)
		for _, v := range s.Data.Data() {
			if v != 0 && v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLIFThresholdMonotonicity(t *testing.T) {
	// Raising Vth can only reduce the number of spikes.
	r := tensor.NewRand(5, 6)
	cur := tensor.RandN(r, 0.5, 1, 100)
	count := func(vth float64) float64 {
		cfg := NeuronConfig{Vth: vth, Alpha: 1}
		tp := autodiff.NewTapeOn(nil)
		s, _ := LIFStep(tp, cfg, tp.Const(cur), tp.Const(tensor.New(100)))
		return tensor.Sum(s.Data)
	}
	prev := count(0.1)
	for _, vth := range []float64{0.5, 1, 1.5, 2.5} {
		c := count(vth)
		if c > prev {
			t.Errorf("spike count increased from %v to %v when Vth rose to %v", prev, c, vth)
		}
		prev = c
	}
}

func TestLIFGradientFlowsThroughTime(t *testing.T) {
	// A two-step unroll: gradients must reach the input of step 1 through
	// the membrane chain of step 2.
	cfg := NeuronConfig{Vth: 1, Alpha: 0.8, Surrogate: FastSigmoid{Beta: 2}}
	tp := autodiff.NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{0.5}, 1))
	v := tp.Const(tensor.New(1))
	var s *autodiff.Value
	s, v = LIFStep(tp, cfg, x, v)
	s2, _ := LIFStep(tp, cfg, x, v)
	backwardSum(tp, tp.Add(s, s2))
	if x.Grad == nil || x.Grad.At(0) == 0 {
		t.Fatal("no gradient reached the input through the unrolled LIF chain")
	}
}

func TestLIFSurrogateGradientMatchesFormula(t *testing.T) {
	beta := 4.0
	cfg := NeuronConfig{Vth: 1, Alpha: 1, Surrogate: FastSigmoid{Beta: beta}}
	tp := autodiff.NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{0.7}, 1))
	s, _ := LIFStep(tp, cfg, x, tp.Const(tensor.New(1)))
	backwardSum(tp, s)
	u := 0.7 - 1.0
	want := 1 / math.Pow(1+beta*math.Abs(u), 2)
	if math.Abs(x.Grad.At(0)-want) > 1e-12 {
		t.Errorf("surrogate grad = %v, want %v", x.Grad.At(0), want)
	}
}

func TestLIFShapeMismatchPanics(t *testing.T) {
	tp := autodiff.NewTapeOn(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes did not panic")
		}
	}()
	LIFStep(tp, defaultNeuronConfig(), tp.Const(tensor.New(2)), tp.Const(tensor.New(3)))
}

func TestConstantCurrentEncoder(t *testing.T) {
	e := ConstantCurrentEncoder{Gain: 2}
	tp := autodiff.NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{0.5, 1}, 2))
	y0 := e.Encode(tp, x, 0)
	y9 := e.Encode(tp, x, 9)
	if !y0.Data.AllClose(y9.Data, 0) {
		t.Error("constant-current encoding varies over time")
	}
	if !y0.Data.AllClose(tensor.FromSlice([]float64{1, 2}, 2), 1e-12) {
		t.Errorf("encoded = %v", y0.Data)
	}
	backwardSum(tp, y0)
	if !x.Grad.AllClose(tensor.Full(2, 2), 1e-12) {
		t.Errorf("encoder grad = %v, want gain", x.Grad)
	}
}

func TestConstantCurrentGainOneIsIdentityNode(t *testing.T) {
	e := ConstantCurrentEncoder{Gain: 1}
	tp := autodiff.NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{0.3}, 1))
	if y := e.Encode(tp, x, 0); y != x {
		t.Error("gain-1 encoder should return the input node unchanged")
	}
}

func TestPoissonEncoderRateMatchesIntensity(t *testing.T) {
	e := NewNormalizedPoissonEncoder(1, 0, 1, 1, 2)
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.Full(0.3, 10000))
	total := 0.0
	const steps = 20
	for t1 := 0; t1 < steps; t1++ {
		s := e.Encode(tp, x, t1)
		total += tensor.Mean(s.Data)
	}
	rate := total / steps
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("empirical rate %v, want ≈0.3", rate)
	}
}

func TestPoissonEncoderBinaryAndClamped(t *testing.T) {
	e := NewNormalizedPoissonEncoder(1, 0, 1, 3, 4)
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.FromSlice([]float64{-0.5, 0, 1, 2}, 4))
	s := e.Encode(tp, x, 0)
	d := s.Data.Data()
	if d[0] != 0 || d[1] != 0 {
		t.Error("non-positive intensity spiked")
	}
	if d[2] != 1 || d[3] != 1 {
		t.Error("saturated intensity did not spike")
	}
}

func TestPoissonEncoderDeterministicPerSeed(t *testing.T) {
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.Full(0.5, 100))
	a := NewNormalizedPoissonEncoder(1, 0, 1, 9, 9).Encode(tp, x, 0).Data.Clone()
	b := NewNormalizedPoissonEncoder(1, 0, 1, 9, 9).Encode(tp, x, 0).Data
	if !a.AllClose(b, 0) {
		t.Error("two encoders with one seed produced different spikes")
	}
}

func TestPoissonEncoderSTEGradient(t *testing.T) {
	e := NewNormalizedPoissonEncoder(2, 0, 1, 5, 5)
	tp := autodiff.NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{0.25}, 1)) // p = 0.5, in region
	s := e.Encode(tp, x, 0)
	backwardSum(tp, s)
	if g := x.Grad.At(0); g != 2 {
		t.Errorf("STE gradient = %v, want gain 2", g)
	}
}

// TestEncodersPackWhileTheySample pins the plane the Poisson encoder
// packs as it stores: bit for bit and count for count the plane a second
// pass over the floats would have packed, on rows that do and do not end
// on a word boundary.
func TestEncodersPackWhileTheySample(t *testing.T) {
	for _, shape := range [][]int{{1, 5}, {3, 64}, {2, 1, 9, 9}, {4, 130}} {
		x := tensor.RandU(tensor.NewRand(3, 5), -0.2, 1.2, shape...)
		enc := NewNormalizedPoissonEncoder(1, 0, 1, 7, 9)
		tp := autodiff.NewTapeOn(nil)
		for step := 0; step < 3; step++ {
			v := enc.Encode(tp, tp.Const(x), step)
			got, want := v.Spikes(), tensor.PackSpikesOn(nil, v.Data)
			if got == nil {
				t.Fatalf("%v: no packed plane attached", shape)
			}
			if !dense(got).AllClose(v.Data, 0) || got.Count() != want.Count() {
				t.Fatalf("%v step %d: packed plane differs from the floats (count %d vs %d)", shape, step, got.Count(), want.Count())
			}
			for r := 0; r < shape[0]; r++ {
				if g, w := rowCount(got, r), rowCount(want, r); g != w {
					t.Fatalf("%v step %d row %d: count %d, want %d", shape, step, r, g, w)
				}
			}
		}
		tp.Release()
	}
}

func buildTinySNN(seed uint64, vth float64, T int) *Network {
	r := tensor.NewRand(seed, 0)
	cfg := NeuronConfig{Vth: vth, Alpha: 0.9, Surrogate: FastSigmoid{Beta: 5}}
	return &Network{
		Encoder: ConstantCurrentEncoder{Gain: 1},
		Hidden: []Layer{
			{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, 16, 12)), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 12, 3),
		ReadoutCfg: cfg,
		T:          T,
		LogitScale: 10,
	}
}

func TestNetworkLogitsShape(t *testing.T) {
	net := buildTinySNN(1, 1, 4)
	tp := autodiff.NewTapeOn(nil)
	r := tensor.NewRand(2, 0)
	x := tp.Const(tensor.RandN(r, 0.5, 0.5, 5, 1, 4, 4))
	y := net.Logits(tp, x)
	if !y.Data.ShapeEquals(5, 3) {
		t.Errorf("logits shape = %v, want [5 3]", y.Data.Shape())
	}
}

func TestNetworkGradReachesInputAndParams(t *testing.T) {
	net := buildTinySNN(5, 0.5, 6)
	tp := autodiff.NewTapeOn(nil)
	r := tensor.NewRand(6, 0)
	x := tp.Var(tensor.RandN(r, 0.8, 0.3, 2, 1, 4, 4))
	loss := tp.SoftmaxCrossEntropy(net.Logits(tp, x), []int{0, 2})
	tp.Backward(loss)
	if x.Grad == nil || tensor.NormInf(x.Grad) == 0 {
		t.Error("white-box input gradient is zero — attacks would be impossible")
	}
	nonzero := false
	for _, p := range net.Params() {
		if tensor.NormInf(p.Grad) > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("no parameter received gradient")
	}
}

func TestNetworkHugeVthSilences(t *testing.T) {
	// With an absurd threshold no spikes fire: spike-count logits are all
	// zero, the defining failure mode of the paper's non-learnable corner.
	net := buildTinySNN(7, 100, 5)
	tp := autodiff.NewTapeOn(nil)
	r := tensor.NewRand(8, 0)
	x := tp.Const(tensor.RandN(r, 0.5, 0.2, 3, 1, 4, 4))
	y := net.Logits(tp, x)
	if tensor.NormInf(y.Data) != 0 {
		t.Errorf("logits non-zero under Vth=100: %v", y.Data)
	}
}

func TestNetworkLongerWindowMoreEvidence(t *testing.T) {
	// Spike-count logits magnitude should not shrink when T grows for a
	// constant-current drive (rates converge).
	netShort := buildTinySNN(9, 0.5, 2)
	netLong := buildTinySNN(9, 0.5, 16)
	r := tensor.NewRand(10, 0)
	xT := tensor.RandN(r, 0.8, 0.3, 2, 1, 4, 4)
	tp1 := autodiff.NewTapeOn(nil)
	y1 := netShort.Logits(tp1, tp1.Const(xT))
	tp2 := autodiff.NewTapeOn(nil)
	y2 := netLong.Logits(tp2, tp2.Const(xT))
	if y1.Data.HasNaN() || y2.Data.HasNaN() {
		t.Fatal("NaN logits")
	}
	// Both networks share weights (same seed), so rates must correlate;
	// just assert the long window is non-degenerate.
	if tensor.NormInf(y2.Data) == 0 && tensor.NormInf(y1.Data) > 0 {
		t.Error("longer window lost all spikes")
	}
}

func TestNetworkTraceRecording(t *testing.T) {
	net := buildTinySNN(11, 0.5, 4)
	net.Record = &Trace{}
	tp := autodiff.NewTapeOn(nil)
	r := tensor.NewRand(12, 0)
	x := tp.Const(tensor.RandN(r, 0.8, 0.3, 2, 1, 4, 4))
	net.Logits(tp, x)
	if len(net.Record.SpikeRates) != 1 {
		t.Fatalf("trace layers = %d", len(net.Record.SpikeRates))
	}
	rate := net.Record.SpikeRates[0]
	if rate < 0 || rate > 1 {
		t.Errorf("spike rate %v out of [0,1]", rate)
	}
}

func TestNetworkValidateCatchesMistakes(t *testing.T) {
	net := buildTinySNN(13, 1, 4)
	net.T = 0
	if err := net.Validate(); err == nil {
		t.Error("T=0 validated")
	}
	net = buildTinySNN(13, 1, 4)
	net.Encoder = nil
	if err := net.Validate(); err == nil {
		t.Error("nil encoder validated")
	}
	net = buildTinySNN(13, 1, 4)
	net.LogitScale = 0
	if err := net.Validate(); err == nil {
		t.Error("zero LogitScale validated")
	}
	net = buildTinySNN(13, 1, 4)
	net.Hidden[0].Cfg.Vth = -1
	if err := net.Validate(); err == nil {
		t.Error("negative Vth validated")
	}
}

func TestSetVth(t *testing.T) {
	net := buildTinySNN(14, 1, 4)
	net.SetVth(2.25)
	if net.Hidden[0].Cfg.Vth != 2.25 || net.ReadoutCfg.Vth != 2.25 {
		t.Error("SetVth did not propagate")
	}
}

// Determinism: identical seeds and inputs give identical logits.
func TestNetworkDeterminism(t *testing.T) {
	r := tensor.NewRand(20, 0)
	xT := tensor.RandN(r, 0.8, 0.3, 2, 1, 4, 4)
	run := func() *tensor.Tensor {
		net := buildTinySNN(21, 1, 6)
		tp := autodiff.NewTapeOn(nil)
		return net.Logits(tp, tp.Const(xT)).Data
	}
	if !run().AllClose(run(), 0) {
		t.Error("two identical constructions diverged")
	}
}

// unpacked passes its input on unchanged but without its packed plane
// (x·1 is exact, and so is its pullback), so the layers behind it take
// the dense path a plane would have let them skip.
type unpacked struct{}

func (unpacked) Forward(tp *autodiff.Tape, x *autodiff.Value) *autodiff.Value { return tp.Scale(x, 1) }
func (unpacked) Params() []*nn.Param                                          { return nil }

// TestSpikeKernelsBitIdenticalEndToEnd pins the spike-plane engine
// through a whole BPTT pass: a spiking network with a Poisson front-end
// (packed encoder spikes into the first convolution), a pooling stage
// (popcount average pooling over the hidden plane) and a spike-fed
// readout must produce bit-identical logits, parameter gradients and
// input gradients with the planes carried and with them stripped before
// both hidden synapses.
func TestSpikeKernelsBitIdenticalEndToEnd(t *testing.T) {
	r := tensor.NewRand(40, 0)
	xT := tensor.RandN(r, 0.6, 0.3, 3, 1, 8, 8)
	labels := []int{0, 2, 1}
	build := func(spike bool) *Network {
		rr := tensor.NewRand(41, 0)
		cfg := NeuronConfig{Vth: 0.8, Alpha: 0.9, Surrogate: FastSigmoid{Beta: 25}}
		strip := []nn.Layer{unpacked{}}
		if spike {
			strip = nil
		}
		return &Network{
			Encoder: NewNormalizedPoissonEncoder(1, 0, 1, 7, 9),
			Hidden: []Layer{
				{Syn: nn.NewSequential(append(strip, nn.NewConv2D(rr, 1, 4, 3, 1, 1))...), Cfg: cfg},
				{Syn: nn.NewSequential(append(strip, nn.AvgPool{K: 2}, nn.Flatten{}, nn.NewLinear(rr, 64, 10))...), Cfg: cfg},
			},
			Readout:    nn.NewLinear(rr, 10, 3),
			ReadoutCfg: cfg,
			T:          5,
			LogitScale: 10,
		}
	}
	type result struct {
		logits, xGrad *tensor.Tensor
		params        []*tensor.Tensor
	}
	run := func(spike bool) result {
		net := build(spike)
		tp := autodiff.NewTapeOn(nil)
		x := tp.Var(xT.Clone())
		logits := net.Logits(tp, x)
		loss := tp.SoftmaxCrossEntropy(logits, labels)
		tp.Backward(loss)
		res := result{logits: logits.Data, xGrad: x.Grad}
		for _, p := range net.Params() {
			res.params = append(res.params, p.Grad)
		}
		return res
	}
	dense := run(false)
	spiked := run(true)
	if !dense.logits.AllClose(spiked.logits, 0) {
		t.Error("packed planes changed the logits")
	}
	if !dense.xGrad.AllClose(spiked.xGrad, 0) {
		t.Error("packed planes changed the input gradient")
	}
	for i := range dense.params {
		if !dense.params[i].AllClose(spiked.params[i], 0) {
			t.Errorf("packed planes changed parameter gradient %d", i)
		}
	}
}

// TestTapeReleaseBitIdenticalAcrossReuse pins the Tape.Release lifetime
// hook at the LIF level: the spike/membrane slabs (and packed planes) a
// forward pass records come from the backend arena, so a second pass
// after Release recycles the first pass's buffers — and must still
// produce bit-identical logits and gradients.
func TestTapeReleaseBitIdenticalAcrossReuse(t *testing.T) {
	r := tensor.NewRand(77, 0)
	xT := tensor.RandN(r, 0.8, 0.3, 3, 1, 4, 4)
	labels := []int{0, 1, 2}
	run := func() (*tensor.Tensor, []*tensor.Tensor) {
		net := buildTinySNN(78, 0.8, 5)
		for _, p := range net.Params() {
			p.ZeroGrad()
		}
		tp := autodiff.NewTapeOn(nil)
		logits := net.Logits(tp, tp.Const(xT))
		loss := tp.SoftmaxCrossEntropy(logits, labels)
		tp.Backward(loss)
		out := logits.Data.Clone() // Data dies with Release; keep a copy
		var grads []*tensor.Tensor
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		tp.Release()
		return out, grads
	}
	l1, g1 := run()
	l2, g2 := run()
	if !l1.AllClose(l2, 0) {
		t.Error("logits differ across pooled-slab reuse")
	}
	for i := range g1 {
		if !g1[i].AllClose(g2[i], 0) {
			t.Errorf("gradient %d differs across pooled-slab reuse", i)
		}
	}
}

// A tiny SNN must be able to learn a separable toy problem through BPTT —
// the end-to-end sanity check for the whole surrogate-gradient machinery.
func TestSNNLearnsToyProblem(t *testing.T) {
	net := buildTinySNN(30, 0.5, 6)
	r := tensor.NewRand(31, 0)
	const n = 48
	xs := tensor.New(n, 1, 4, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = c
		// Three classes light up three different image quadrants.
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				xs.Set(1.0+0.1*r.NormFloat64(), i, 0, y+(c%2)*2, x+(c/2)*2)
			}
		}
	}
	var first, last float64
	for epoch := 0; epoch < 60; epoch++ {
		for _, p := range net.Params() {
			p.ZeroGrad()
		}
		tp := autodiff.NewTapeOn(nil)
		loss := tp.SoftmaxCrossEntropy(net.Logits(tp, tp.Const(xs)), labels)
		if epoch == 0 {
			first = loss.Data.Item()
		}
		last = loss.Data.Item()
		tp.Backward(loss)
		for _, p := range net.Params() {
			for i, g := range p.Grad.Data() {
				p.Data.Data()[i] -= 0.05 * g
			}
		}
	}
	if last >= first*0.8 {
		t.Errorf("SNN BPTT did not reduce loss: %v -> %v", first, last)
	}
	tp := autodiff.NewTapeOn(nil)
	pred := tensor.ArgmaxRowsOn(nil, net.Logits(tp, tp.Const(xs)).Data)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if correct < n*2/3 {
		t.Errorf("SNN toy accuracy %d/%d", correct, n)
	}
}

func TestNormalizedPoissonEncoderDenormalises(t *testing.T) {
	// A pixel at normalised value x should spike with rate std·x + mean.
	mean, std := 0.1307, 0.3081
	e := NewNormalizedPoissonEncoder(1, mean, std, 1, 2)
	raw := 0.8
	normed := (raw - mean) / std
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.Full(normed, 5000))
	total := 0.0
	const steps = 20
	for i := 0; i < steps; i++ {
		total += tensor.Mean(e.Encode(tp, x, i).Data)
	}
	rate := total / steps
	if math.Abs(rate-raw) > 0.01 {
		t.Errorf("empirical rate %v, want ≈%v", rate, raw)
	}
}

func TestNormalizedPoissonEncoderSTESlope(t *testing.T) {
	mean, std := 0.1307, 0.3081
	e := NewNormalizedPoissonEncoder(1, mean, std, 3, 4)
	tp := autodiff.NewTapeOn(nil)
	x := tp.Var(tensor.FromSlice([]float64{0}, 1)) // rate = mean, inside (0,1)
	s := e.Encode(tp, x, 0)
	backwardSum(tp, s)
	if g := x.Grad.At(0); math.Abs(g-std) > 1e-12 {
		t.Errorf("STE slope = %v, want Gain·Scale = %v", g, std)
	}
}

func TestPoissonEncoderZeroScaleDefaultsToOne(t *testing.T) {
	// A zero-valued Scale field (struct literal without Scale) must not
	// silence the encoder.
	e := &PoissonEncoder{Gain: 1, rng: tensor.NewRand(1, 1)}
	tp := autodiff.NewTapeOn(nil)
	x := tp.Const(tensor.Full(1.0, 100))
	s := e.Encode(tp, x, 0)
	if tensor.Sum(s.Data) != 100 {
		t.Errorf("saturated input spiked %v/100 with zero Scale", tensor.Sum(s.Data))
	}
}

// rowCount returns the number of set bits in row r of s's [rows, cols]
// view.
func rowCount(s *tensor.SpikeTensor, r int) int {
	cols := s.Len() / s.Dim(0)
	n := 0
	for _, v := range dense(s).Data()[r*cols : (r+1)*cols] {
		if v == 1 {
			n++
		}
	}
	return n
}
