package tensor

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"snnsec/internal/compute"
)

// The spike-plane contract: a packed plane round-trips its 0/1 view
// exactly, and SpikeMatMul/SpikeConv2D — the dense kernel behind a
// pooled unpack — equal the dense kernels on that view at every spike
// density, on the Serial and Parallel backends. The density sweep covers
// the empty and full planes and the sparse and half-full interior.

// spikeDensities spans the sweep the acceptance criteria name: all-zero,
// ~10%, ~50%, all-one.
var spikeDensities = []float64{0, 0.1, 0.5, 1}

// binaryTensor returns a 0/1 tensor with approximately the given
// density of ones (exactly empty/full at 0 and 1).
func binaryTensor(rng *rand.Rand, density float64, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		if density >= 1 || (density > 0 && rng.Float64() < density) {
			d[i] = 1
		}
	}
	return t
}

func spikeRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x59135))
}

func TestPackSpikesRoundTrip(t *testing.T) {
	rng := spikeRand(1)
	shapes := [][]int{{1, 1}, {3, 7}, {5, 64}, {4, 65}, {2, 3, 5, 7}, {9, 130}}
	for _, shape := range shapes {
		for _, density := range spikeDensities {
			x := binaryTensor(rng, density, shape...)
			s := PackSpikesOn(nil, x)
			d := dense(s)
			if !d.SameShape(x) {
				t.Fatalf("dense view shape %v, want %v", d.Shape(), x.Shape())
			}
			total := 0
			for i, v := range x.Data() {
				if d.Data()[i] != v {
					t.Fatalf("shape %v density %v: element %d round-trips %v to %v", shape, density, i, v, d.Data()[i])
				}
				if v == 1 {
					total++
				}
			}
			if s.Count() != total {
				t.Fatalf("Count = %d, want %d", s.Count(), total)
			}
			rows, cols, _ := spikeDims(shape)
			rc := 0
			for r := 0; r < rows; r++ {
				rc += s.ensureCounts()[r]
				for c := 0; c < cols; c++ {
					if bit(s, r, c) != (x.Data()[r*cols+c] == 1) {
						t.Fatalf("Bit(%d,%d) disagrees with the dense element", r, c)
					}
				}
			}
			if rc != total {
				t.Fatalf("row counts sum to %d, want %d", rc, total)
			}
			if got := s.Density(); math.Abs(got-float64(total)/float64(x.Len())) > 1e-15 {
				t.Fatalf("Density = %v", got)
			}
		}
	}
}

func TestPackSpikesRejectsNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackSpikes accepted a non-binary element")
		}
	}()
	PackSpikesOn(nil, FromSlice([]float64{0, 1, 0.5}, 3))
}

func TestSpikeReshape(t *testing.T) {
	rng := spikeRand(2)
	x := binaryTensor(rng, 0.3, 2, 3, 4, 5)
	s := PackSpikesOn(nil, x)
	flat := s.ReshapeInto(new(SpikeTensor), 2, 60)
	if flat.Dims() != 2 || flat.Dim(1) != 60 {
		t.Fatalf("reshape shape = %v", flat.Shape())
	}
	want := x.Reshape(2, 60)
	if !dense(flat).ShapeEquals(2, 60) {
		t.Fatalf("reshaped dense view kept the old shape %v", dense(flat).Shape())
	}
	assertIdentical(t, "spike reshape dense view", want, dense(flat))
	defer func() {
		if recover() == nil {
			t.Fatal("reshape changing the leading dimension did not panic")
		}
	}()
	s.ReshapeInto(new(SpikeTensor), 4, 30)
}

func TestSpikeMatMulMatchesDense(t *testing.T) {
	rng := spikeRand(3)
	r := NewRand(11, 19)
	ser := compute.Serial{}
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {5, 64, 9}, {7, 65, 13}, {17, 130, 31}, {8, 200, 48},
	}
	for _, s := range shapes {
		for _, density := range spikeDensities {
			a := binaryTensor(rng, density, s.m, s.k)
			b := RandN(r, 0, 1, s.k, s.n)
			sp := PackSpikesOn(nil, a)
			want := MatMulOn(ser, a, b)
			assertIdentical(t, "SpikeMatMul vs naive", MatMulNaiveOn(ser, a, b), want)
			for _, be := range blockedBackends {
				assertIdentical(t, "SpikeMatMul", want, SpikeMatMulOn(be, sp, b))
			}
		}
	}
}

// TestSpikeMatMulNaNFallback: a NaN or Inf in the dense operand must
// poison the product exactly as the dense kernel does (0·NaN = NaN),
// even through a spike row that is all zeros.
func TestSpikeMatMulNaNFallback(t *testing.T) {
	a := FromSlice([]float64{0, 0, 1, 0}, 2, 2)
	sp := PackSpikesOn(nil, a)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := FromSlice([]float64{bad, 1, 2, 3}, 2, 2)
		want := MatMulOn(compute.Serial{}, a, b)
		for _, be := range blockedBackends {
			assertIdentical(t, "SpikeMatMul NaN fallback", want, SpikeMatMulOn(be, sp, b))
		}
		if !math.IsNaN(SpikeMatMulOn(nil, sp, b).At(0, 0)) {
			t.Fatalf("SpikeMatMul swallowed %v through a zero spike row", bad)
		}
	}
}

func TestSpikeConv2DMatchesDense(t *testing.T) {
	rng := spikeRand(5)
	r := NewRand(13, 29)
	ser := compute.Serial{}
	for _, cs := range convCases {
		for _, density := range spikeDensities {
			x := binaryTensor(rng, density, cs.n, cs.c, cs.h, cs.w)
			wt := RandN(r, 0, 1, cs.f, cs.c, cs.k, cs.k)
			bias := RandN(r, 0, 1, cs.f)
			sp := PackSpikesOn(nil, x)
			want := Conv2DOn(ser, x, wt, bias, cs.p)
			wantNoBias := Conv2DOn(ser, x, wt, nil, cs.p)
			for _, be := range blockedBackends {
				assertIdentical(t, "SpikeConv2D", want, SpikeConv2DOn(be, sp, wt, bias, cs.p))
				assertIdentical(t, "SpikeConv2D no-bias", wantNoBias, SpikeConv2DOn(be, sp, wt, nil, cs.p))
			}
		}
	}
}

// TestSpikeConv2DNonFiniteWeightFallback: a NaN weight must reach every
// output element it touches, as in the dense pipeline, even over an
// all-zero plane.
func TestSpikeConv2DNonFiniteWeightFallback(t *testing.T) {
	x := New(1, 1, 3, 3) // all-zero spikes
	sp := PackSpikesOn(nil, x)
	wt := Full(math.NaN(), 1, 1, 3, 3)
	p := ConvParams{Stride: 1, Padding: 1}
	want := Conv2DOn(compute.Serial{}, x, wt, nil, p)
	for _, be := range blockedBackends {
		assertIdentical(t, "SpikeConv2D NaN weights", want, SpikeConv2DOn(be, sp, wt, nil, p))
	}
	if !math.IsNaN(SpikeConv2DOn(nil, sp, wt, nil, p).At(0, 0, 0, 0)) {
		t.Fatal("SpikeConv2D swallowed NaN weights on an all-zero plane")
	}
}

// TestConcurrentSpikePoolUse drives pack, unpack and the spike products
// from many goroutines sharing one Parallel backend and the process-wide
// float64/uint64 scratch pools; under -race this checks the pooled
// unpack scratch for data races, and the result checks pin determinism
// under contention.
func TestConcurrentSpikePoolUse(t *testing.T) {
	rng := spikeRand(6)
	r := NewRand(17, 31)
	x := binaryTensor(rng, 0.2, 3, 2, 8, 8)
	wt := RandN(r, 0, 1, 4, 2, 3, 3)
	a := binaryTensor(rng, 0.15, 9, 33)
	b := RandN(r, 0, 1, 33, 21)
	p := ConvParams{Stride: 1, Padding: 1}
	ser := compute.Serial{}
	wantConv := Conv2DOn(ser, x, wt, nil, p)
	wantMM := MatMulOn(ser, a, b)

	be := compute.NewParallel(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				sp := PackSpikesOn(be, x)
				if got := SpikeConv2DOn(be, sp, wt, nil, p); !got.AllClose(wantConv, 0) {
					t.Error("concurrent SpikeConv2D produced a different result")
					return
				}
				if got := sp.DenseInto(be, New(sp.Shape()...)); !got.AllClose(x, 0) {
					t.Error("concurrent Dense produced a different result")
					return
				}
				am := PackSpikesOn(be, a)
				if got := SpikeMatMulOn(be, am, b); !got.AllClose(wantMM, 0) {
					t.Error("concurrent SpikeMatMul produced a different result")
					return
				}
			}
		}()
	}
	wg.Wait()
}
