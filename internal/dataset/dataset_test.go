package dataset

import (
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"snnsec/internal/tensor"
)

func mustSynth(t testing.TB, n int, seed uint64) *Dataset {
	t.Helper()
	d, err := SynthDigits(DefaultSynthConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSynthDigitsBasics(t *testing.T) {
	d := mustSynth(t, 50, 1)
	if d.Len() != 50 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.NumClasses() != 10 {
		t.Errorf("NumClasses = %d", d.NumClasses())
	}
	h, w := d.ImageSize()
	if h != 16 || w != 16 {
		t.Errorf("ImageSize = %dx%d", h, w)
	}
	for _, v := range d.X.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("raw pixel %v out of [0,1]", v)
		}
	}
}

func TestSynthDigitsBalancedClasses(t *testing.T) {
	d := mustSynth(t, 100, 2)
	counts := make([]int, d.NumClasses())
	for _, y := range d.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Errorf("class %d count = %d, want 10", c, n)
		}
	}
}

func TestSynthDigitsDeterministic(t *testing.T) {
	a := mustSynth(t, 30, 7)
	b := mustSynth(t, 30, 7)
	if !a.X.AllClose(b.X, 0) {
		t.Error("same seed produced different images")
	}
	c := mustSynth(t, 30, 8)
	if a.X.AllClose(c.X, 0) {
		t.Error("different seeds produced identical images")
	}
}

func TestSynthDigitsHaveInk(t *testing.T) {
	d := mustSynth(t, 20, 3)
	h, w := d.ImageSize()
	for i := 0; i < d.Len(); i++ {
		img := d.X.Data()[i*h*w : (i+1)*h*w]
		var s float64
		for _, v := range img {
			s += v
		}
		if s < 5 {
			t.Errorf("sample %d nearly blank (ink sum %v)", i, s)
		}
	}
}

func TestSynthDigitsClassesDiffer(t *testing.T) {
	// Mean images of different digits must be distinguishable.
	cfg := DefaultSynthConfig(200, 4)
	d, err := SynthDigits(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, w := d.ImageSize()
	means := make([][]float64, 10)
	for c := range means {
		means[c] = make([]float64, h*w)
	}
	counts := make([]int, 10)
	for i := 0; i < d.Len(); i++ {
		c := d.Y[i]
		counts[c]++
		img := d.X.Data()[i*h*w : (i+1)*h*w]
		for j, v := range img {
			means[c][j] += v
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += (a[i] - b[i]) * (a[i] - b[i])
		}
		return math.Sqrt(s)
	}
	if d01 := dist(means[0], means[1]); d01 < 1 {
		t.Errorf("digits 0 and 1 mean images too close: %v", d01)
	}
	if d38 := dist(means[3], means[8]); d38 < 0.3 {
		t.Errorf("digits 3 and 8 mean images too close: %v", d38)
	}
}

func TestSynthConfigValidation(t *testing.T) {
	bad := DefaultSynthConfig(10, 1)
	bad.Size = 4
	if _, err := SynthDigits(bad); err == nil {
		t.Error("size 4 accepted")
	}
	bad = DefaultSynthConfig(0, 1)
	if _, err := SynthDigits(bad); err == nil {
		t.Error("N=0 accepted")
	}
	bad = DefaultSynthConfig(10, 1)
	bad.NoiseStd = -1
	if _, err := SynthDigits(bad); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestNormalizeAndBounds(t *testing.T) {
	d := mustSynth(t, 20, 5)
	lo, hi := d.Bounds()
	if lo != 0 || hi != 1 {
		t.Errorf("raw bounds = %v, %v", lo, hi)
	}
	d.Normalize()
	lo, hi = d.Bounds()
	wantLo := (0 - MNISTMean) / MNISTStd
	wantHi := (1 - MNISTMean) / MNISTStd
	if math.Abs(lo-wantLo) > 1e-12 || math.Abs(hi-wantHi) > 1e-12 {
		t.Errorf("normalised bounds = %v, %v, want %v, %v", lo, hi, wantLo, wantHi)
	}
	for _, v := range d.X.Data() {
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("normalised pixel %v out of [%v,%v]", v, lo, hi)
		}
	}
	// Idempotent.
	before := d.X.Clone()
	d.Normalize()
	if !d.X.AllClose(before, 0) {
		t.Error("Normalize is not idempotent")
	}
}

func TestSubset(t *testing.T) {
	d := mustSynth(t, 30, 6)
	s := d.Subset(10, 20)
	if s.Len() != 10 {
		t.Fatalf("subset len = %d", s.Len())
	}
	if s.Y[0] != d.Y[10] {
		t.Error("subset labels misaligned")
	}
	if !s.X.Slice(0).AllClose(d.X.Slice(10), 0) {
		t.Error("subset images misaligned")
	}
	// Independence from parent.
	s.X.Data()[0] = 99
	if d.X.Slice(10).Data()[0] == 99 {
		t.Error("subset shares storage")
	}
}

func TestSubsetBadRangePanics(t *testing.T) {
	d := mustSynth(t, 10, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("bad subset did not panic")
		}
	}()
	d.Subset(5, 3)
}

func TestShufflePreservesPairs(t *testing.T) {
	d := mustSynth(t, 40, 9)
	// Fingerprint: per-sample ink sum must follow its label through the
	// shuffle.
	h, w := d.ImageSize()
	sum := func(ds *Dataset, i int) float64 {
		var s float64
		for _, v := range ds.X.Data()[i*h*w : (i+1)*h*w] {
			s += v
		}
		return s
	}
	type pair struct {
		label int
		ink   float64
	}
	before := map[pair]int{}
	for i := 0; i < d.Len(); i++ {
		before[pair{d.Y[i], math.Round(sum(d, i) * 1e6)}]++
	}
	d.Shuffle(tensor.NewRand(1, 1))
	after := map[pair]int{}
	for i := 0; i < d.Len(); i++ {
		after[pair{d.Y[i], math.Round(sum(d, i) * 1e6)}]++
	}
	if len(before) != len(after) {
		t.Fatal("shuffle changed the multiset of samples")
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatal("shuffle broke image-label pairing")
		}
	}
}

func TestBatches(t *testing.T) {
	d := mustSynth(t, 25, 10)
	bs := d.Batches(8)
	if len(bs) != 4 {
		t.Fatalf("batch count = %d, want 4", len(bs))
	}
	if bs[3].X.Dim(0) != 1 {
		t.Errorf("last batch size = %d, want 1", bs[3].X.Dim(0))
	}
	total := 0
	for _, b := range bs {
		if b.X.Dim(0) != len(b.Y) {
			t.Fatal("batch X/Y size mismatch")
		}
		total += len(b.Y)
	}
	if total != 25 {
		t.Errorf("batches cover %d samples, want 25", total)
	}
}

func TestBatchesBadSizePanics(t *testing.T) {
	d := mustSynth(t, 5, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("batch size 0 did not panic")
		}
	}()
	d.Batches(0)
}

func TestIDXRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := mustSynth(t, 20, 11)
	imgs := filepath.Join(dir, "imgs")
	lbls := filepath.Join(dir, "lbls")
	if err := WriteIDX(d, imgs, lbls); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMNIST(imgs, lbls)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round-trip len = %d", got.Len())
	}
	for i := range got.Y {
		if got.Y[i] != d.Y[i] {
			t.Fatalf("label %d changed", i)
		}
	}
	// Byte quantisation loses at most 1/255 ≈ 0.004 per pixel.
	if !got.X.AllClose(d.X, 0.5/255+1e-9) {
		t.Error("round-trip images differ beyond quantisation")
	}
}

func TestLoadMNISTMissingFile(t *testing.T) {
	if _, err := LoadMNIST("/nonexistent/a", "/nonexistent/b"); err == nil {
		t.Error("missing file did not error")
	}
}

func TestGlyphFieldProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRand(seed, 21)
		d := int(seed % 10)
		gx := r.Float64()*10 - 2
		gy := r.Float64()*12 - 2
		v := glyphField(d, gx, gy)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Outside the glyph box the field is zero.
	if glyphField(0, -3, -3) != 0 || glyphField(0, 100, 0) != 0 {
		t.Error("field non-zero far outside glyph")
	}
}
