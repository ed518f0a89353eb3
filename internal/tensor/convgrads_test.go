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

// TestConvGradsWantedSubsetBitIdentical pins the conv pullback's "a nil
// destination is a gradient nobody reads": for every subset of {input,
// weight, bias}, on a dense input and on a packed-only input — which the
// tape unpacks into arena memory for the call — each gradient in the
// subset, written over a destination full of NaN, as dirty as arena
// memory gets, is bit-identical to the one the all-wanted call returns,
// with a finite and a non-finite gout.
func TestConvGradsWantedSubsetBitIdentical(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := NewRand(61, 67)
		for ci, cs := range convCases {
			x := RandU(r, 0, 1, cs.n, cs.c, cs.h, cs.w)
			for i, v := range x.Data() { // a binary plane both kernels accept
				x.Data()[i] = math.Round(v)
			}
			sp := PackSpikesOn(nil, x)
			wt := RandN(r, 0, 1, cs.f, cs.c, cs.k, cs.k)
			oh, ow := cs.p.ConvOutSize(cs.h, cs.k), cs.p.ConvOutSize(cs.w, cs.k)
			finite := RandN(r, 0, 1, cs.n, cs.f, oh, ow)
			nonFinite := finite.Clone()
			nonFinite.Data()[0] = math.NaN()
			nonFinite.Data()[nonFinite.Len()-1] = math.Inf(1)
			for gi, gout := range []*Tensor{finite, nonFinite} {
				for _, be := range blockedBackends {
					kernels := []struct {
						name  string
						grads func(dx, dw, db *Tensor)
					}{
						{"dense", func(dx, dw, db *Tensor) { Conv2DGradsInto(be, dx, dw, db, x, wt, gout, cs.p) }},
						{"packed-only", func(dx, dw, db *Tensor) {
							Conv2DGradsInto(be, dx, dw, db, sp.DenseInto(be, Full(math.NaN(), x.Shape()...)), wt, gout, cs.p)
						}},
					}
					wdx, wdw, wdb := Conv2DBackwardOn(be, x, wt, gout, cs.p, true)
					for _, k := range kernels {
						for wanted := 0; wanted < 8; wanted++ {
							name := fmt.Sprintf("case %d gout %d %s wanted %03b", ci, gi, k.name, wanted)
							var dsts [3]*Tensor
							for i, want := range []*Tensor{wdx, wdw, wdb} {
								if wanted&(1<<i) != 0 {
									dsts[i] = Full(math.NaN(), want.Shape()...)
								}
							}
							k.grads(dsts[0], dsts[1], dsts[2])
							for i, want := range []*Tensor{wdx, wdw, wdb} {
								if dsts[i] != nil {
									assertSameBits(t, name+" "+[]string{"dx", "dw", "db"}[i], want, dsts[i])
								}
							}
						}
					}
				}
			}
		}
	})
}
