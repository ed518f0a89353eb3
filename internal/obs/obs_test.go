package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// arm enables collection for one test and restores the disarmed default
// afterwards. The obs tests never run in parallel: armed is process
// state.
func arm(t *testing.T) {
	t.Helper()
	Arm()
	t.Cleanup(Disarm)
}

func TestDisarmedWritesAreDropped(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_disarmed_total", "t")
	g := r.NewGauge("test_disarmed_gauge", "t")
	h := r.NewHistogram("test_disarmed_hist", "t", []float64{1})
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(2)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disarmed writes landed: counter=%d gauge=%g hist=%d", c.Value(), g.Value(), h.Count())
	}
}

func TestCounterAndGauge(t *testing.T) {
	arm(t)
	r := NewRegistry()
	c := r.NewCounter("test_total", "t")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.NewGauge("test_gauge", "t")
	g.Set(7)
	g.Add(-2.5)
	if g.Value() != 4.5 {
		t.Fatalf("gauge = %g, want 4.5", g.Value())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	arm(t)
	r := NewRegistry()
	h := r.NewHistogram("test_hist", "t", []float64{1, 2, 5})
	// One observation exactly on each bound (le semantics: a value equal
	// to a bound lands in that bound's bucket), plus interior and
	// overflow values.
	for _, v := range []float64{1, 2, 5, 0.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 21.5; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	wantPerBucket := []uint64{2, 1, 2, 1} // ≤1: {1, 0.5}; ≤2: {2}; ≤5: {5, 3}; +Inf: {10}
	for i, want := range wantPerBucket {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d holds %d, want %d", i, got, want)
		}
	}
	var sb strings.Builder
	h.writeSamples(&sb)
	out := sb.String()
	// Exposition buckets are cumulative.
	for _, line := range []string{
		`test_hist_bucket{le="1"} 2`,
		`test_hist_bucket{le="2"} 3`,
		`test_hist_bucket{le="5"} 5`,
		`test_hist_bucket{le="+Inf"} 6`,
		`test_hist_sum 21.5`,
		`test_hist_count 6`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

// TestConcurrentIncrements exercises every instrument from many
// goroutines; it exists for the -race sweep and checks totals land
// exactly.
func TestConcurrentIncrements(t *testing.T) {
	arm(t)
	r := NewRegistry()
	c := r.NewCounter("test_conc_total", "t")
	g := r.NewGauge("test_conc_gauge", "t")
	h := r.NewHistogram("test_conc_hist", "t", []float64{0.5, 1})
	cv := r.NewCounterVec("test_conc_vec_total", "t", "k")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child := cv.With("a")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(1)
				child.Inc()
			}
		}()
	}
	wg.Wait()
	const want = workers * per
	if c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != want {
		t.Errorf("gauge = %g, want %d", g.Value(), want)
	}
	if h.Count() != want || h.Sum() != want {
		t.Errorf("hist count=%d sum=%g, want %d", h.Count(), h.Sum(), want)
	}
	if cv.With("a").Value() != want {
		t.Errorf("vec child = %d, want %d", cv.With("a").Value(), want)
	}
}

func TestVecLabelsAndEscaping(t *testing.T) {
	arm(t)
	r := NewRegistry()
	cv := r.NewCounterVec("test_vec_total", "t", "model", "kind")
	cv.With("b", "y").Inc()
	cv.With("a", "x").Add(2)
	cv.With(`q"\`+"\n", "z").Inc()
	if cv.With("a", "x") != cv.With("a", "x") {
		t.Fatal("With did not cache the child")
	}
	var sb strings.Builder
	cv.writeSamples(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d sample lines, want 3:\n%s", len(lines), out)
	}
	// Sorted series order, escaped label values.
	if !strings.HasPrefix(lines[0], `test_vec_total{model="a",kind="x"} 2`) {
		t.Errorf("first line %q not the sorted a/x series", lines[0])
	}
	if !strings.Contains(out, `model="q\"\\\n"`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestRegistryRejectsBadAndDuplicateNames(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_dup_total", "t")
	mustPanic(t, "duplicate", func() { r.NewCounter("test_dup_total", "t") })
	mustPanic(t, "bad name", func() { r.NewCounter("9starts_with_digit", "t") })
	mustPanic(t, "bad label", func() { r.NewCounterVec("test_lbl_total", "t", "bad-label") })
	mustPanic(t, "empty buckets", func() { r.NewHistogram("test_h0", "t", nil) })
	mustPanic(t, "descending buckets", func() { r.NewHistogram("test_h1", "t", []float64{2, 1}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestWritePrometheusParses(t *testing.T) {
	arm(t)
	r := NewRegistry()
	r.NewCounter("test_expo_total", "counts things").Inc()
	r.NewGauge("test_expo_gauge", "help with \\ and \n newline").Set(2.5)
	r.NewHistogram("test_expo_hist", "t", []float64{0.1, 1}).Observe(0.05)
	r.NewCounterVec("test_expo_vec_total", "t", "k").With("v").Inc()
	r.NewInfoFunc("test_expo_info", "t", func() map[string]string {
		return map[string]string{"version": "1.0.0"}
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_expo_total counts things\n# TYPE test_expo_total counter\ntest_expo_total 1\n",
		"# TYPE test_expo_gauge gauge\ntest_expo_gauge 2.5\n",
		`help with \\ and \n newline`,
		`test_expo_vec_total{k="v"} 1`,
		`test_expo_info{version="1.0.0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every sample line must match the text-format grammar the CI smoke
	// enforces: name, optional {labels}, one float value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLineOK(line) {
			t.Errorf("unparseable sample line %q", line)
		}
	}
}

// sampleLineOK is a minimal parser for `name{labels} value` lines.
func sampleLineOK(line string) bool {
	sp := strings.LastIndexByte(line, ' ')
	if sp <= 0 {
		return false
	}
	series, val := line[:sp], line[sp+1:]
	if val != "+Inf" && val != "-Inf" && val != "NaN" {
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return false
		}
	}
	name := series
	if i := strings.IndexByte(series, '{'); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			return false
		}
		name = series[:i]
	}
	return checkMetricName(name) == nil
}

func TestBuildInfo(t *testing.T) {
	old, oldKernels := Version(), Kernels()
	defer SetVersion(old)
	defer SetKernels(oldKernels)
	SetVersion("9.9.9-test")
	SetKernels("avx512")
	if Version() != "9.9.9-test" {
		t.Fatalf("Version = %q", Version())
	}
	if s := BuildString(); !strings.Contains(s, "9.9.9-test") || !strings.Contains(s, "go") || !strings.HasSuffix(s, " kernels=avx512") {
		t.Fatalf("BuildString = %q", s)
	}
	var sb strings.Builder
	if err := Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "snnsec_build_info{") || !strings.Contains(out, `version="9.9.9-test"`) || !strings.Contains(out, `kernels="avx512"`) {
		t.Fatalf("default registry missing build info:\n%s", out)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	mustPanic(t, "bad start", func() { ExpBuckets(0, 2, 3) })
}
