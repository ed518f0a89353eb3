package snn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// The AVX neuron step (lif_amd64.s) is pinned to the Go loop of
// thresholdStep bit for bit. The reference side of every comparison below
// is the same LIFStep with its surrogate behind another type: the step's
// type assertion misses it, so every neuron stays on the Go loop, calling
// FastSigmoid.Grad through the interface. The pullback is the same Go
// loop on both sides; it is run because it is what reads the surrogate
// plane the kernel wrote.

// goLoopSigmoid is FastSigmoid as far as any float is concerned and a
// different type as far as thresholdStep's kernel gate is.
type goLoopSigmoid struct{ FastSigmoid }

// poisonBackend fills every arena buffer with NaN on its way out, so a
// lane a kernel leaves unwritten reads NaN where the reference holds a
// number.
type poisonBackend struct{ compute.Backend }

func (p poisonBackend) Get(n int) []float64 {
	buf := p.Backend.Get(n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf
}

// stepResult is everything one LIF step hands on: its two outputs, the
// packed plane as bits and per-row counts (nil when no plane was packed),
// and the bits of the two gradient products as the pullback hands them
// over (nil for a constant step).
type stepResult struct {
	spikes, membrane *tensor.Tensor
	bits             []bool
	counts           []int
	dI, dV           []uint64
}

// runStep advances one LIF step on be. With seedS and/or seedV set, the
// inputs are differentiable and the step's pullback runs with exactly
// those upstream gradients (a nil seed is a gradient nothing produced).
func runStep(be compute.Backend, cfg NeuronConfig, cur, mem, seedS, seedV *tensor.Tensor) stepResult {
	tp := autodiff.NewTapeOn(be)
	defer tp.Release()
	var res stepResult
	c, m := tp.Const(cur), tp.Const(mem)
	if seedS != nil || seedV != nil {
		// Interior nodes, so the products arrive raw: a leaf would add
		// them into its zeroed buffer and turn a −0 into +0.
		c, m = probe(tp, tp.Var(cur), &res.dI), probe(tp, tp.Var(mem), &res.dV)
	}
	s, v := LIFStep(tp, cfg, c, m)
	res.spikes, res.membrane = s.Data.Clone(), v.Data.Clone()
	if sp := s.Spikes(); sp != nil {
		rows, rowLen := cur.Shape()[0], cur.Len()/cur.Shape()[0]
		d := dense(sp).Data()
		for r := 0; r < rows; r++ {
			res.counts = append(res.counts, rowCount(sp, r))
			for j := 0; j < rowLen; j++ {
				res.bits = append(res.bits, d[r*rowLen+j] == 1)
			}
		}
	}
	switch {
	case seedS != nil && seedV != nil:
		// Each 1×1 product hands 0 + 1·seed to its output: the seeds, −0
		// aside.
		dot := func(a *autodiff.Value, w *tensor.Tensor) *autodiff.Value {
			return tp.MatMul(tp.Reshape(a, 1, -1), tp.Const(w.Reshape(-1, 1)))
		}
		tp.Backward(tp.Add(dot(s, seedS), dot(v, seedV)))
	case seedS != nil:
		tp.BackwardWithSeed(s, seedS)
	case seedV != nil:
		tp.BackwardWithSeed(v, seedV)
	}
	return res
}

func assertSameBits(t *testing.T, name string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d elements, Go loop %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: element %d of %d: Go loop %v (%#x), kernel %v (%#x)", name, i, len(want), math.Float64frombits(want[i]), want[i], math.Float64frombits(got[i]), got[i])
		}
	}
}

func bitsOf(t *tensor.Tensor) []uint64 {
	out := make([]uint64, t.Len())
	for i, v := range t.Data() {
		out[i] = math.Float64bits(v)
	}
	return out
}

// oddFloats are the values the kernels could plausibly treat differently
// from the scalar loop. The NaN is the one the hardware itself makes of
// Inf − Inf, so every NaN a step computes carries one payload: which of
// two different payloads an add or multiply keeps is the instruction
// encoding's choice, not the kernel's (tensor's padded-conv test makes
// the same choice).
func oddFloats() []float64 {
	return []float64{0 * math.Inf(1), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310}
}

// stepInputs returns a current and a membrane plane of the given shape:
// Gaussian, with every fifth neuron (offset 0) one of the odd cases — a
// pre-reset membrane exactly on the threshold (strict >, no spike), one
// ulp above it, NaN, ±Inf, Inf − Inf, −0 and denormals in either operand.
func stepInputs(r *rand.Rand, vth float64, rows, rowLen int) (cur, mem *tensor.Tensor) {
	cur = tensor.RandN(r, 0.5, 0.6, rows, rowLen)
	mem = tensor.RandN(r, 0.2, 0.5, rows, rowLen)
	odd := oddFloats()
	pairs := [][2]float64{{vth, 0}, {math.Nextafter(vth, 2), 0}, {0, math.Inf(1)}, {math.Inf(-1), math.Inf(1)}}
	for _, o := range odd {
		pairs = append(pairs, [2]float64{o, 0.25}, [2]float64{0.25, o}, [2]float64{o, o})
	}
	cd, md := cur.Data(), mem.Data()
	for i, k := 0, 0; i < len(cd); i, k = i+5, k+1 {
		cd[i], md[i] = pairs[k%len(pairs)][0], pairs[k%len(pairs)][1]
	}
	return cur, mem
}

// upstream returns a gradient plane with an odd float at every fifth
// neuron, offset 2: never on a neuron whose surrogate may itself be NaN.
func upstream(r *rand.Rand, rows, rowLen int) *tensor.Tensor {
	g := tensor.RandN(r, 0, 1, rows, rowLen)
	odd := oddFloats()
	gd := g.Data()
	for i, k := 2, 0; i < len(gd); i, k = i+5, k+1 {
		gd[i] = odd[k%len(odd)]
	}
	return g
}

// TestStepKernelsMatchGoLoop crosses the row lengths around a 64-neuron
// word (tails only, full words only, both) with row counts, both reset
// modes, constant and gradient-tracking steps (upstream gradient on the
// spikes, on the membrane, on both) and two backend widths, all on
// NaN-filled arena memory.
func TestStepKernelsMatchGoLoop(t *testing.T) {
	if !tensor.HasAVX() {
		t.Log("no AVX kernels in this build: both sides run the Go loop")
	}
	const vth = 0.75
	ser := poisonBackend{compute.Serial{}}
	backends := []compute.Backend{ser, poisonBackend{compute.NewParallel(2)}}
	r := tensor.NewRand(97, 101)
	for _, rowLen := range []int{1, 3, 63, 64, 65, 84, 120, 128, 1536} {
		for _, rows := range []int{1, 5, 32} {
			cur, mem := stepInputs(r, vth, rows, rowLen)
			gS, gV := upstream(r, rows, rowLen), upstream(r, rows, rowLen)
			seeds := [][2]*tensor.Tensor{{nil, nil}, {gS, nil}, {nil, gV}, {gS, gV}}
			for _, reset := range []ResetMode{ResetZero, ResetSubtract} {
				for si, seed := range seeds {
					cfg := NeuronConfig{Vth: vth, Alpha: 0.9, Reset: reset, Surrogate: goLoopSigmoid{FastSigmoid{Beta: 10}}}
					want := runStep(ser, cfg, cur, mem, seed[0], seed[1])
					if want.counts == nil {
						t.Fatal("the step attached no packed plane")
					}
					cfg.Surrogate = FastSigmoid{Beta: 10}
					for bi, be := range backends {
						name := fmt.Sprintf("%dx%d %v seeds %d backend %d", rows, rowLen, reset, si, bi)
						got := runStep(be, cfg, cur, mem, seed[0], seed[1])
						assertSameBits(t, name+" spikes", bitsOf(want.spikes), bitsOf(got.spikes))
						assertSameBits(t, name+" membrane", bitsOf(want.membrane), bitsOf(got.membrane))
						assertSameBits(t, name+" dI", want.dI, got.dI)
						assertSameBits(t, name+" dV", want.dV, got.dV)
						if fmt.Sprint(want.counts) != fmt.Sprint(got.counts) {
							t.Fatalf("%s: row counts %v, Go loop %v", name, got.counts, want.counts)
						}
						for i := range want.bits {
							if want.bits[i] != got.bits[i] || want.bits[i] != (want.spikes.Data()[i] == 1) {
								t.Fatalf("%s: packed bit %d is %v, Go loop %v, dense plane %v", name, i, got.bits[i], want.bits[i], want.spikes.Data()[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestStepKernelThresholdIsStrict reads the odd neurons back by value: a
// membrane exactly on the threshold, a NaN and −Inf stay silent, one ulp
// above and +Inf fire, in a full word (kernel) and in a tail (Go loop).
func TestStepKernelThresholdIsStrict(t *testing.T) {
	const vth = 0.75
	for _, rowLen := range []int{64, 5} {
		cur := tensor.New(1, rowLen)
		copy(cur.Data(), []float64{vth, math.Nextafter(vth, 2), math.NaN(), math.Inf(1), math.Inf(-1)})
		cfg := NeuronConfig{Vth: vth, Alpha: 0.9, Reset: ResetZero, Surrogate: FastSigmoid{Beta: 10}}
		res := runStep(compute.Serial{}, cfg, cur, tensor.New(1, rowLen), nil, nil)
		for i, want := range []float64{0, 1, 0, 1, 0} {
			if got := res.spikes.Data()[i]; got != want || res.bits[i] != (want == 1) {
				t.Errorf("row of %d, input %v: spike %v (bit %v), want %v", rowLen, cur.Data()[i], got, res.bits[i], want)
			}
		}
		if res.counts[0] != 2 {
			t.Errorf("row of %d: count %d, want 2", rowLen, res.counts[0])
		}
	}
}
