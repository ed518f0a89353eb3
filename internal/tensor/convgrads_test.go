package tensor

import (
	"fmt"
	"math"
	"testing"
)

// assertSameBits is assertIdentical at full strictness: every element
// must have the same float64 bit pattern (NaN payloads and the sign of
// zero included).
func assertSameBits(t *testing.T, name string, want, got *Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v vs %v", name, want.Shape(), got.Shape())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, wd[i], gd[i])
		}
	}
}

// TestConvGradsMaskBitIdentical pins the need mask of the conv
// pullbacks: for every subset of {input, weight, bias}, on the dense and
// the spike-plane kernel, each gradient in the subset is bit-identical
// to the one the all-needed call returns and each gradient outside it is
// nil. The non-finite gout rows send the spike kernel through its dense
// fallback, which must honour the mask the same way.
func TestConvGradsMaskBitIdentical(t *testing.T) {
	r := NewRand(61, 67)
	for ci, cs := range convCases {
		x := RandU(r, 0, 1, cs.n, cs.c, cs.h, cs.w)
		for i, v := range x.Data() { // a binary plane both kernels accept
			x.Data()[i] = math.Round(v)
		}
		sp := PackSpikes(x)
		wt := RandN(r, 0, 1, cs.f, cs.c, cs.k, cs.k)
		oh, ow := cs.p.ConvOutSize(cs.h, cs.k), cs.p.ConvOutSize(cs.w, cs.k)
		finite := RandN(r, 0, 1, cs.n, cs.f, oh, ow)
		nonFinite := finite.Clone()
		nonFinite.Data()[0] = math.NaN()
		nonFinite.Data()[nonFinite.Len()-1] = math.Inf(1)
		for gi, gout := range []*Tensor{finite, nonFinite} {
			for _, be := range blockedBackends {
				col := SpikeIm2ColOn(be, sp, cs.k, cs.k, cs.p)
				kernels := []struct {
					name  string
					grads func(need ConvGrads) (dx, dw, db *Tensor)
				}{
					{"dense", func(need ConvGrads) (dx, dw, db *Tensor) {
						return Conv2DGradsOn(be, x, wt, gout, cs.p, need)
					}},
					{"spike", func(need ConvGrads) (dx, dw, db *Tensor) {
						return SpikeConv2DGradsWithColOn(be, sp, nil, wt, gout, cs.p, need)
					}},
					{"spike+col", func(need ConvGrads) (dx, dw, db *Tensor) {
						return SpikeConv2DGradsWithColOn(be, sp, col, wt, gout, cs.p, need)
					}},
				}
				wdx, wdw, wdb := Conv2DBackwardOn(be, x, wt, gout, cs.p, true)
				for _, k := range kernels {
					for need := ConvGrads(0); need <= ConvGradInput|ConvGradWeight|ConvGradBias; need++ {
						name := fmt.Sprintf("case %d gout %d %s need %03b", ci, gi, k.name, need)
						dx, dw, db := k.grads(need)
						for _, g := range []struct {
							bit       ConvGrads
							what      string
							want, got *Tensor
						}{
							{ConvGradInput, "dx", wdx, dx},
							{ConvGradWeight, "dw", wdw, dw},
							{ConvGradBias, "db", wdb, db},
						} {
							if need&g.bit == 0 {
								if g.got != nil {
									t.Fatalf("%s: %s computed though not asked for", name, g.what)
								}
								continue
							}
							if g.got == nil {
								t.Fatalf("%s: %s missing", name, g.what)
							}
							assertSameBits(t, name+" "+g.what, g.want, g.got)
						}
					}
				}
			}
		}
	}
}
