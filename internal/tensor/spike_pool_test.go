package tensor

import (
	"fmt"
	"testing"

	"snnsec/internal/compute"
)

// The popcount pooling kernel must be bit-identical to the dense window
// loop on the dense view of the same plane, at every density, on every
// backend.

func TestSpikeAvgPool2DMatchesDense(t *testing.T) {
	for _, density := range []float64{0, 0.1, 0.5, 1} {
		rng := spikeRand(uint64(100 + int(density*100)))
		for _, shape := range []struct{ n, c, h, w, k int }{
			{2, 3, 8, 8, 2},
			{1, 1, 4, 4, 4},
			{3, 2, 12, 6, 3},
			{1, 2, 64, 64, 2},
			// The 2×2 band count on rows of W ≤ 64 bits: several channels
			// so rows start mid-word, an odd number of windows per band
			// (W = 14, W = 2), and full-word rows.
			{2, 3, 6, 14, 2},
			{1, 5, 16, 16, 2},
			{2, 3, 28, 28, 2},
			{2, 3, 2, 2, 2},
			{1, 3, 4, 64, 2},
			// The window loop: other k, and 2×2 over rows wider than a
			// word.
			{2, 3, 8, 8, 1},
			{1, 3, 9, 15, 3},
			{2, 3, 8, 12, 4},
			{1, 3, 4, 66, 2},
			{1, 2, 6, 96, 3},
		} {
			x := binaryTensor(rng, density, shape.n, shape.c, shape.h, shape.w)
			sp := PackSpikesOn(nil, x)
			ser := compute.Serial{}
			want := avgPool2D(ser, x, shape.k)
			name := fmt.Sprintf("SpikeAvgPool2D d=%g %v k=%d", density, x.Shape(), shape.k)
			assertIdentical(t, name, want, spikeAvgPool2D(ser, sp, shape.k))
			forEachParallel(t, func(t *testing.T, be compute.Backend) {
				assertIdentical(t, name+" parallel", want, spikeAvgPool2D(be, sp, shape.k))
			})
		}
	}
}

func TestSpikePoolRejectsBadShapes(t *testing.T) {
	sp := PackSpikesOn(nil, New(1, 1, 4, 4))
	// The shape checks run before the destination's, so one dst serves.
	out := New(1, 1, 1, 1)
	for _, f := range []func(){
		func() { SpikeAvgPool2DInto(nil, out, sp, 3) },                           // 4 % 3 != 0
		func() { SpikeAvgPool2DInto(nil, out, sp, 0) },                           // window out of range
		func() { SpikeAvgPool2DInto(nil, out, sp, 65) },                          // window above one word
		func() { SpikeAvgPool2DInto(nil, out, PackSpikesOn(nil, New(2, 8)), 2) }, // not 4-D
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad spike pool call did not panic")
				}
			}()
			f()
		}()
	}
}
