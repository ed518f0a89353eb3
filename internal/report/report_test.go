package report

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"snnsec/internal/attack"
	"snnsec/internal/explore"
)

func sampleResult() *explore.Result {
	return &explore.Result{
		Vths:     []float64{0.5, 1},
		Ts:       []int{8, 16},
		Epsilons: []float64{1, 1.5},
		Points: []explore.Point{
			{Vth: 0.5, T: 8, CleanAccuracy: 0.91, Learnable: true,
				Robustness: []attack.CurvePoint{{Eps: 1, RobustAccuracy: 0.4}, {Eps: 1.5, RobustAccuracy: 0.2}}},
			{Vth: 1, T: 8, CleanAccuracy: 0.12},
			{Vth: 0.5, T: 16, CleanAccuracy: 0.95, Learnable: true,
				Robustness: []attack.CurvePoint{{Eps: 1, RobustAccuracy: 0.8}, {Eps: 1.5, RobustAccuracy: 0.6}}},
			{Vth: 1, T: 16, CleanAccuracy: 0.89, Learnable: true,
				Robustness: []attack.CurvePoint{{Eps: 1, RobustAccuracy: 0.5}, {Eps: 1.5, RobustAccuracy: 0.35}}},
		},
	}
}

func TestAccuracyGridValues(t *testing.T) {
	g := AccuracyGrid(sampleResult())
	if len(g.Cells) != 2 || len(g.Cells[0]) != 2 {
		t.Fatalf("grid shape %dx%d", len(g.Cells), len(g.Cells[0]))
	}
	if g.Cells[0][0] != 0.91 || g.Cells[1][1] != 0.89 {
		t.Errorf("cells = %v", g.Cells)
	}
	if g.RowLabels[1] != "16" || g.ColLabels[0] != "0.5" {
		t.Errorf("labels = %v / %v", g.RowLabels, g.ColLabels)
	}
}

func TestRobustnessGridMissingCells(t *testing.T) {
	g := RobustnessGrid(sampleResult(), 1.5)
	if !math.IsNaN(g.Cells[0][1]) {
		t.Error("non-learnable cell should be NaN")
	}
	if g.Cells[1][0] != 0.6 {
		t.Errorf("cell = %v, want 0.6", g.Cells[1][0])
	}
	// Unmeasured ε: everything NaN.
	g2 := RobustnessGrid(sampleResult(), 99)
	for _, row := range g2.Cells {
		for _, v := range row {
			if !math.IsNaN(v) {
				t.Fatal("phantom ε produced values")
			}
		}
	}
}

func TestWriteASCII(t *testing.T) {
	var buf bytes.Buffer
	AccuracyGrid(sampleResult()).WriteASCII(&buf)
	s := buf.String()
	if !strings.Contains(s, "Figure 6") {
		t.Error("missing title")
	}
	// Rows top-down: T=16 first.
	i16 := strings.Index(s, "16 |")
	i8 := strings.Index(s, " 8 |")
	if i16 < 0 || i8 < 0 || i16 > i8 {
		t.Errorf("rows not reversed:\n%s", s)
	}
	if !strings.Contains(s, "0.910") {
		t.Errorf("missing value:\n%s", s)
	}
	var buf2 bytes.Buffer
	RobustnessGrid(sampleResult(), 1.5).WriteASCII(&buf2)
	if !strings.Contains(buf2.String(), "--") {
		t.Error("missing-cell marker absent")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	RobustnessGrid(sampleResult(), 1).WriteCSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if lines[0] != "T/Vth,0.5,1" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "8,0.4000,") {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.HasSuffix(lines[1], ",") {
		t.Errorf("missing cell should be empty: %q", lines[1])
	}
}

func TestWriteCurvesAlignsSeries(t *testing.T) {
	var buf bytes.Buffer
	WriteCurves(&buf, "Figure 9", []Series{
		{Name: "CNN", Points: []attack.CurvePoint{{Eps: 0, RobustAccuracy: 0.95}, {Eps: 1, RobustAccuracy: 0.05}}},
		{Name: "SNN(1,48)", Points: []attack.CurvePoint{{Eps: 0, RobustAccuracy: 0.9}, {Eps: 1, RobustAccuracy: 0.8}, {Eps: 2, RobustAccuracy: 0.5}}},
	})
	s := buf.String()
	if !strings.Contains(s, "Figure 9") || !strings.Contains(s, "CNN") || !strings.Contains(s, "SNN(1,48)") {
		t.Errorf("curve table incomplete:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title + header + 3 ε rows
		t.Fatalf("curve table has %d lines:\n%s", len(lines), s)
	}
	// ε ascending.
	if !strings.Contains(lines[2], "0.000") || !strings.Contains(lines[4], "2.000") {
		t.Errorf("ε not sorted:\n%s", s)
	}
	// CNN has no ε=2 point: placeholder.
	if !strings.Contains(lines[4], "--") {
		t.Errorf("missing point placeholder absent:\n%s", s)
	}
}

// TestGridsFromPartialResult: a partial (checkpointed/budget-limited)
// result renders with its never-computed points as missing cells, not as
// zero accuracy.
func TestGridsFromPartialResult(t *testing.T) {
	res := explore.NewPartialResult([]float64{0.5, 1}, []int{2, 4}, []float64{1})
	res.Set(0, explore.Point{Vth: 0.5, T: 2, CleanAccuracy: 0.8, Learnable: true,
		Robustness: []attack.CurvePoint{{Eps: 1, RobustAccuracy: 0.4}}})
	res.Set(3, explore.Point{Vth: 1, T: 4, CleanAccuracy: 0.3})

	acc := AccuracyGrid(res)
	if v := acc.Cells[0][0]; v != 0.8 {
		t.Errorf("computed cell = %v, want 0.8", v)
	}
	if !math.IsNaN(acc.Cells[0][1]) || !math.IsNaN(acc.Cells[1][0]) {
		t.Error("missing points rendered as values instead of NaN")
	}
	if v := acc.Cells[1][1]; v != 0.3 {
		t.Errorf("second computed cell = %v, want 0.3", v)
	}
	rob := RobustnessGrid(res, 1)
	if v := rob.Cells[0][0]; v != 0.4 {
		t.Errorf("robustness cell = %v, want 0.4", v)
	}
	if !math.IsNaN(rob.Cells[1][1]) {
		t.Error("non-learnable computed point should stay NaN in robustness grid")
	}
	// The ASCII rendering shows missing cells as "--" rather than 0.
	var buf strings.Builder
	acc.WriteASCII(&buf)
	if !strings.Contains(buf.String(), "--") {
		t.Error("ASCII render of a partial grid lacks missing markers")
	}
}

func TestShadeRamp(t *testing.T) {
	if shade(math.NaN()) != '?' {
		t.Error("NaN shade")
	}
	if shade(0) != ' ' {
		t.Errorf("shade(0) = %c", shade(0))
	}
	if shade(1) != '@' {
		t.Errorf("shade(1) = %c", shade(1))
	}
	if shade(-5) != ' ' || shade(7) != '@' {
		t.Error("out-of-range shade not clamped")
	}
	// Monotone.
	prev := shade(0)
	ramp := " .:-=+*#%@"
	for v := 0.05; v <= 1; v += 0.05 {
		cur := shade(v)
		if strings.IndexByte(ramp, cur) < strings.IndexByte(ramp, prev) {
			t.Fatalf("ramp not monotone at %v", v)
		}
		prev = cur
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{0.5: "0.5", 1: "1", 2.25: "2.25", 0.1: "0.1"}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestNewGridAllNaN(t *testing.T) {
	g := NewGrid("t", "r", "c", []string{"a"}, []string{"b", "c"})
	for _, row := range g.Cells {
		for _, v := range row {
			if !math.IsNaN(v) {
				t.Fatal("fresh grid not NaN")
			}
		}
	}
}

func TestClip(t *testing.T) {
	if clip("short", 10) != "short" {
		t.Error("clip altered short string")
	}
	long := clip("averyveryverylongname", 8)
	if len(long) > 10 { // byte length can exceed 8 due to the ellipsis rune
		t.Errorf("clip result too long: %q", long)
	}
}
