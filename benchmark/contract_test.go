package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json; DisallowUnknownFields below makes
// "exactly these keys" part of the test.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(raw))
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// BENCHMARK.json declares exactly the metrics of names.go; newResult (see
// below) makes a run emit exactly those of names.go; so the file and the
// emitted names agree at --trace 0 and at --trace 1.
func TestBenchmarkJSONMatchesNames(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from names.go:\n file %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from names.go:\n file %+v\n code %+v", doc.PerLayer, perLayer)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, names.go has %v", names, workloadNames)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, drive.go's defaultSeconds %d", doc.RunSeconds, defaultSeconds)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command %v, want %v", doc.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths %v, want %v", doc.Paths, want)
	}
}

func TestBenchmarkJSONLimits(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range doc.Workloads {
		use(w.Name)
	}
	setup := false
	for _, m := range doc.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), doc.EndToEnd...), doc.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range doc.PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// newResult is the one place a result line's metric set is made: it must
// refuse a missing or an undeclared metric, and zero-fill only when told.
func TestNewResultHoldsTheMetricSet(t *testing.T) {
	all := map[string]float64{}
	for i, d := range endToEnd {
		all[d.Name] = float64(i + 1)
	}
	res, err := newResult(endToEnd, all, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) || res.Metrics["setup_s"].Unit != "s" {
		t.Errorf("metrics %+v", res.Metrics)
	}
	delete(all, "latency_ms")
	if _, err := newResult(endToEnd, all, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if _, err := newResult(perLayer, map[string]float64{"serve.parse_us": 1, "serve.made_up": 2}, true); err == nil {
		t.Error("an undeclared per-layer metric was accepted")
	}
	res, err = newResult(perLayer, map[string]float64{"serve.parse_us": 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || res.Metrics["host.calib_ms"].Value != 0 {
		t.Errorf("per-layer metrics were not zero-filled: %d of %d", len(res.Metrics), len(perLayer))
	}
}

// The driver also runs the command in a directory that holds only
// BENCHMARK.json and the files under paths; there it must fail, printing
// no result.
func TestCommandFailsInBareDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs bash")
	}
	bash, err := exec.LookPath("bash")
	if err != nil {
		t.Skip("no bash")
	}
	doc := loadBenchmarkJSON(t)
	dir := t.TempDir()
	copyFile(t, filepath.Join("..", "BENCHMARK.json"), filepath.Join(dir, "BENCHMARK.json"))
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			copyFile(t, e.Name(), filepath.Join(dir, "benchmark", e.Name()))
		}
	}
	args := append(doc.Command[1:], "--workload", "alg1_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd := exec.Command(bash, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Errorf("the command succeeded in a bare directory; stdout %q", stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("the command printed %q in a bare directory", stdout.String())
	}
	if !strings.Contains(stderr.String(), "not a checkout") {
		t.Errorf("stderr does not say why: %q", stderr.String())
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
