package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints — the driver's arithmetic.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates, as Python does
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.9, 3.0, 3.4, 2.8, 3.3, 5.0, 3.05, 2.95, 3.2}, 2.9375000000000004, 3.3249999999999997},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	// One outlier in ten does not move the interquartile range much.
	v := []float64{3.1, 2.9, 3.0, 3.4, 2.8, 3.3, 5.0, 3.05, 2.95, 3.2}
	want := (3.3249999999999997 - 2.9375000000000004) / 3.075
	if got := spread(v); !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {99, 5}, {20, 1}, {21, 2}, {100, 5}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, math.Inf(1)}, 99); !math.IsInf(got, 1) {
		t.Errorf("a refused request must carry its +Inf into the tail, got %v", got)
	}
}

// A run overshoots its budget by at most half a round of laps.
func TestLapsLeft(t *testing.T) {
	s := time.Second
	for _, c := range []struct {
		elapsed, round, budget time.Duration
		want                   bool
	}{
		{0, 0, 20 * s, true},
		{18 * s, 2 * s, 20 * s, true},                   // ends at 20 s
		{19 * s, 2 * s, 20 * s, false},                  // would end at 21 s
		{19*s + 500*time.Millisecond, s, 20 * s, false}, // exactly half a round over is not started
		{17600 * time.Millisecond, 2200 * time.Millisecond, 20 * s, true},
		{19800 * time.Millisecond, 2200 * time.Millisecond, 20 * s, false},
	} {
		if got := lapsLeft(c.elapsed, c.round, c.budget); got != c.want {
			t.Errorf("lapsLeft(%v, %v, %v) = %t, want %t", c.elapsed, c.round, c.budget, got, c.want)
		}
	}
	// Laps of 2.2 s in a 20 s budget: nine laps, 19.8 s measured.
	laps, elapsed := 0, time.Duration(0)
	for lap := 2200 * time.Millisecond; laps == 0 || lapsLeft(elapsed, lap, 20*s); laps++ {
		elapsed += lap
	}
	if laps != 9 {
		t.Errorf("2.2 s laps in 20 s: %d laps, want 9", laps)
	}
}
