package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"snnsec/internal/compute"
)

// The spike-plane contract: every spike kernel is bit-identical to the
// dense kernel on the unpacked 0/1 view, at every spike density, on the
// Serial and Parallel backends. The density sweep covers the empty and
// full planes (pure control flow, no accumulation at 0%) and the
// sparse/half-full interior where the select-accumulate and the dense
// zero-skip paths genuinely diverge in execution.

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
			s := PackSpikes(x)
			d := s.Dense()
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
				rc += s.RowCount(r)
				for c := 0; c < cols; c++ {
					if s.Bit(r, c) != (x.Data()[r*cols+c] == 1) {
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
	PackSpikes(FromSlice([]float64{0, 1, 0.5}, 3))
}

func TestSpikeReshape(t *testing.T) {
	rng := spikeRand(2)
	x := binaryTensor(rng, 0.3, 2, 3, 4, 5)
	s := PackSpikes(x)
	s.Dense() // materialise before reshaping: the cache must follow the shape
	flat := s.Reshape(2, 60)
	if flat.Dims() != 2 || flat.Dim(1) != 60 {
		t.Fatalf("reshape shape = %v", flat.Shape())
	}
	want := x.Reshape(2, 60)
	if !flat.Dense().ShapeEquals(2, 60) {
		t.Fatalf("reshaped dense view kept the old shape %v", flat.Dense().Shape())
	}
	assertIdentical(t, "spike reshape dense view", want, flat.Dense())
	defer func() {
		if recover() == nil {
			t.Fatal("reshape changing the leading dimension did not panic")
		}
	}()
	s.Reshape(4, 30)
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
			sp := PackSpikes(a)
			want := MatMulOn(ser, a, b)
			assertIdentical(t, "SpikeMatMul vs naive", MatMulNaiveOn(ser, a, b), want)
			for _, be := range blockedBackends {
				assertIdentical(t, "SpikeMatMul", want, SpikeMatMulOn(be, sp, b))
			}

			at := Transpose2D(a) // [k, m] spike plane, bits along m
			spt := PackSpikes(at)
			wantATB := MatMulATBOn(ser, at, b)
			for _, be := range blockedBackends {
				assertIdentical(t, "SpikeMatMulATB", wantATB, SpikeMatMulATBOn(be, spt, b))
			}
		}
	}
}

// TestSpikeMatMulNaNFallback pins the finiteness gate: a NaN or Inf in
// the dense operand must poison the product exactly as the dense kernel
// does (0·NaN = NaN), even where the spike row would skip the term.
func TestSpikeMatMulNaNFallback(t *testing.T) {
	a := FromSlice([]float64{0, 0, 1, 0}, 2, 2)
	sp := PackSpikes(a)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := FromSlice([]float64{bad, 1, 2, 3}, 2, 2)
		want := MatMulOn(compute.Serial{}, a, b)
		wantATB := MatMulATBOn(compute.Serial{}, a, b)
		spa := PackSpikes(a) // a is its own transpose pattern holder: [k=2, m=2]
		for _, be := range blockedBackends {
			assertIdentical(t, "SpikeMatMul NaN fallback", want, SpikeMatMulOn(be, sp, b))
			assertIdentical(t, "SpikeMatMulATB NaN fallback", wantATB, SpikeMatMulATBOn(be, spa, b))
		}
		if !math.IsNaN(SpikeMatMul(sp, b).At(0, 0)) {
			t.Fatalf("SpikeMatMul swallowed %v through a zero spike row", bad)
		}
	}
}

func TestSpikeIm2ColMatchesDense(t *testing.T) {
	rng := spikeRand(4)
	ser := compute.Serial{}
	for _, cs := range convCases {
		for _, density := range spikeDensities {
			x := binaryTensor(rng, density, cs.n, cs.c, cs.h, cs.w)
			sp := PackSpikes(x)
			oh, ow := cs.p.ConvOutSize(cs.h, cs.k), cs.p.ConvOutSize(cs.w, cs.k)
			ckk := cs.c * cs.k * cs.k
			dense := make([]float64, ckk*cs.n*oh*ow)
			im2colBatchInto(ser, dense, x.Data(), cs.n, cs.c, cs.h, cs.w, cs.k, cs.k, cs.p)
			for _, be := range blockedBackends {
				col := SpikeIm2ColOn(be, sp, cs.k, cs.k, cs.p)
				if col.Dim(0) != cs.n*oh*ow || col.Dim(1) != ckk {
					t.Fatalf("spike col shape %v", col.Shape())
				}
				// col is the transpose of the dense batched layout.
				for q := 0; q < ckk; q++ {
					for j := 0; j < cs.n*oh*ow; j++ {
						want := dense[q*cs.n*oh*ow+j] == 1
						if col.Bit(j, q) != want {
							t.Fatalf("case %+v density %v: tap (%d,%d) = %v, want %v", cs, density, j, q, col.Bit(j, q), want)
						}
					}
				}
			}
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
			sp := PackSpikes(x)
			want := Conv2DOn(ser, x, wt, bias, cs.p)
			wantNoBias := Conv2DOn(ser, x, wt, nil, cs.p)
			for _, be := range blockedBackends {
				assertIdentical(t, "SpikeConv2D", want, SpikeConv2DOn(be, sp, wt, bias, cs.p))
				assertIdentical(t, "SpikeConv2D no-bias", wantNoBias, SpikeConv2DOn(be, sp, wt, nil, cs.p))
			}
		}
	}
}

func TestSpikeConv2DBackwardMatchesDense(t *testing.T) {
	rng := spikeRand(8)
	r := NewRand(19, 53)
	ser := compute.Serial{}
	for _, cs := range convCases {
		for _, density := range spikeDensities {
			x := binaryTensor(rng, density, cs.n, cs.c, cs.h, cs.w)
			wt := RandN(r, 0, 1, cs.f, cs.c, cs.k, cs.k)
			oh, ow := cs.p.ConvOutSize(cs.h, cs.k), cs.p.ConvOutSize(cs.w, cs.k)
			gout := RandN(r, 0, 1, cs.n, cs.f, oh, ow)
			sp := PackSpikes(x)
			wdx, wdw, wdb := Conv2DBackwardOn(ser, x, wt, gout, cs.p, true)
			for _, be := range blockedBackends {
				dx, dw, db := SpikeConv2DBackwardOn(be, sp, wt, gout, cs.p, true)
				assertIdentical(t, "SpikeConv2DBackward dx", wdx, dx)
				assertIdentical(t, "SpikeConv2DBackward dw", wdw, dw)
				assertIdentical(t, "SpikeConv2DBackward db", wdb, db)
				dxn, dwn, dbn := SpikeConv2DBackwardOn(be, sp, wt, gout, cs.p, false)
				assertIdentical(t, "SpikeConv2DBackward dx no-bias", wdx, dxn)
				assertIdentical(t, "SpikeConv2DBackward dw no-bias", wdw, dwn)
				if dbn != nil {
					t.Fatalf("SpikeConv2DBackward returned dbias without hasBias")
				}
			}
		}
	}
}

// TestSpikeConv2DBackwardNaNGoutFallback: a non-finite upstream gradient
// must reach the weight gradient exactly as in the dense pipeline (a
// skipped zero tap would swallow 0·NaN).
func TestSpikeConv2DBackwardNaNGoutFallback(t *testing.T) {
	x := New(1, 1, 3, 3) // all-zero spikes
	sp := PackSpikes(x)
	r := NewRand(29, 31)
	wt := RandN(r, 0, 1, 2, 1, 3, 3)
	p := ConvParams{Stride: 1, Padding: 1}
	gout := Full(math.NaN(), 1, 2, 3, 3)
	wdx, wdw, _ := Conv2DBackwardOn(compute.Serial{}, x, wt, gout, p, false)
	for _, be := range blockedBackends {
		dx, dw, _ := SpikeConv2DBackwardOn(be, sp, wt, gout, p, false)
		assertIdentical(t, "SpikeConv2DBackward NaN dx", wdx, dx)
		assertIdentical(t, "SpikeConv2DBackward NaN dw", wdw, dw)
	}
}

// TestSpikeConv2DNonFiniteWeightFallback: a NaN weight must reach every
// output element it touches in the dense pipeline, so the spike path
// must defer to it rather than skip zero taps.
func TestSpikeConv2DNonFiniteWeightFallback(t *testing.T) {
	x := New(1, 1, 3, 3) // all-zero spikes: every tap would be skipped
	sp := PackSpikes(x)
	wt := Full(math.NaN(), 1, 1, 3, 3)
	p := ConvParams{Stride: 1, Padding: 1}
	want := Conv2DOn(compute.Serial{}, x, wt, nil, p)
	for _, be := range blockedBackends {
		assertIdentical(t, "SpikeConv2D NaN weights", want, SpikeConv2DOn(be, sp, wt, nil, p))
	}
	if !math.IsNaN(SpikeConv2D(sp, wt, nil, p).At(0, 0, 0, 0)) {
		t.Fatal("SpikeConv2D swallowed NaN weights on an all-zero plane")
	}
}

// TestConcurrentSpikePoolUse drives pack, unpack, spike-im2col and the
// spike products from many goroutines sharing one Parallel backend and
// the process-wide float64/uint64 scratch pools; under -race this
// checks the pooled pack/unpack scratch for data races, and the result
// checks pin determinism under contention.
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
				if got := sp.DenseOn(be); !got.AllClose(x, 0) {
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

// TestSparseVsDensePerfGate is the same-run relative perf gate of the
// spike-plane PR: both kernels run in this very process on identical
// inputs at ~10% spike density, and the test fails if the
// select-accumulate kernel is slower than the dense micro-kernel it
// replaces. At this density the sparse kernel skips ~90% of the work
// 64 elements at a time, so a generous margin separates it from
// scheduler noise even under the race detector.
func TestSparseVsDensePerfGate(t *testing.T) {
	rng := spikeRand(7)
	r := NewRand(23, 37)
	const m, k, n = 256, 256, 256
	a := binaryTensor(rng, 0.1, m, k)
	b := RandN(r, 0, 1, k, n)
	sp := PackSpikes(a)
	ser := compute.Serial{}

	// Warm both paths (pools, branch predictors) before timing.
	assertIdentical(t, "perf gate equivalence", MatMulOn(ser, a, b), SpikeMatMulOn(ser, sp, b))

	const iters = 3
	best := func(f func()) time.Duration {
		bestD := time.Duration(math.MaxInt64)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	dense := best(func() { MatMulOn(ser, a, b) })
	sparse := best(func() { SpikeMatMulOn(ser, sp, b) })
	t.Logf("dense %v, sparse %v (%.2fx) at 10%% density, %dx%dx%d", dense, sparse, float64(dense)/float64(sparse), m, k, n)
	if sparse > dense {
		t.Fatalf("sparse kernel slower than dense at 10%% density: sparse %v vs dense %v", sparse, dense)
	}
}

// TestDensityCrossoverGate sweeps spike density 0–100% in 10% steps on
// the 256³ matmul, timing the select-accumulate spike kernel against
// the dense blocked kernel on identical inputs. It logs the table the
// dispatch thresholds are calibrated from (EXPERIMENTS.md holds the
// recorded copy; SNNSEC_WRITE_CROSSOVER=1 refreshes it), and asserts
// the dispatcher picks the measured-faster side at both extremes — a
// density-adaptive policy must never lose to the kernel it rejected at
// 0% or 100%.
func TestDensityCrossoverGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the sparse-vs-dense timing ratio; the non-race CI step enforces this gate")
	}
	rng := spikeRand(11)
	r := NewRand(41, 43)
	const m, k, n = 256, 256, 256
	b := RandN(r, 0, 1, k, n)
	ser := compute.Serial{}

	const iters = 2
	best := func(f func()) time.Duration {
		bestD := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}

	type row struct {
		density        float64
		dense, sparse  time.Duration
		speedup        float64
		dispatchSparse bool
	}
	var rows []row
	for pct := 0; pct <= 100; pct += 10 {
		density := float64(pct) / 100
		a := binaryTensor(rng, density, m, k)
		sp := PackSpikes(a)
		// Warm both kernels and pin equivalence at this density.
		assertIdentical(t, fmt.Sprintf("crossover equivalence at %d%%", pct),
			MatMulOn(ser, a, b), SpikeMatMulOn(ser, sp, b))
		dense := best(func() { MatMulOn(ser, a, b) })
		sparse := best(func() { SpikeMatMulOn(ser, sp, b) })
		rows = append(rows, row{
			density:        density,
			dense:          dense,
			sparse:         sparse,
			speedup:        float64(dense) / float64(sparse),
			dispatchSparse: compute.UseSparse(compute.KernelMatMul, sp.Density()),
		})
	}

	var table strings.Builder
	fmt.Fprintf(&table, "| density | dense | sparse | sparse speedup | dispatch |\n")
	fmt.Fprintf(&table, "|---|---|---|---|---|\n")
	crossover := -1.0
	for _, rw := range rows {
		pick := "dense"
		if rw.dispatchSparse {
			pick = "sparse"
		}
		fmt.Fprintf(&table, "| %3.0f%% | %v | %v | %.2fx | %s |\n",
			rw.density*100, rw.dense.Round(10*time.Microsecond), rw.sparse.Round(10*time.Microsecond), rw.speedup, pick)
		if rw.speedup >= 1 {
			crossover = rw.density
		}
	}
	t.Logf("density crossover sweep (%dx%dx%d, serial):\n%shighest density where sparse still wins: %.0f%%",
		m, k, n, table.String(), crossover*100)

	// The ends of the sweep are unambiguous: at 0% the spike kernel skips
	// everything, at 100% it can only add overhead to dense work. The
	// dispatcher must agree with the measurement on both.
	lo, hi := rows[0], rows[len(rows)-1]
	if !lo.dispatchSparse || lo.sparse > lo.dense {
		t.Errorf("at 0%% density: dispatch sparse=%v, sparse %v vs dense %v — dispatcher must take the winning sparse side",
			lo.dispatchSparse, lo.sparse, lo.dense)
	}
	if hi.dispatchSparse || hi.dense > hi.sparse {
		t.Errorf("at 100%% density: dispatch sparse=%v, dense %v vs sparse %v — dispatcher must take the winning dense side",
			hi.dispatchSparse, hi.dense, hi.sparse)
	}

	if os.Getenv("SNNSEC_WRITE_CROSSOVER") != "" {
		if err := updateCrossoverTable(table.String()); err != nil {
			t.Fatalf("updating EXPERIMENTS.md: %v", err)
		}
	}
}

// updateCrossoverTable replaces the marked section of EXPERIMENTS.md
// with a freshly measured crossover table.
func updateCrossoverTable(table string) error {
	const path = "../../EXPERIMENTS.md"
	const begin, end = "<!-- crossover:begin -->", "<!-- crossover:end -->"
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s := string(raw)
	i := strings.Index(s, begin)
	j := strings.Index(s, end)
	if i < 0 || j < 0 || j < i {
		return fmt.Errorf("markers %q/%q not found", begin, end)
	}
	out := s[:i+len(begin)] + "\n" + table + s[j:]
	return os.WriteFile(path, []byte(out), 0o644)
}
