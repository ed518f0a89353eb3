package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does: the
// driver computes its spreads that way, so selfcheck must too. It needs
// at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after the clamp, as Python does: it may extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median,
// the quantity the driver holds against a metric's bound.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// medianTime runs f reps times and returns the median duration in
// milliseconds — the reading every probe reports.
func medianTime(reps int, f func()) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		t0 := time.Now()
		f()
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ms)
}

// lapsLeft is the lap-splitting rule: another round of laps starts while
// the time already measured plus half of what the last round took still
// fits in the budget, so a run overshoots --seconds by at most half a
// round and never by a whole one.
func lapsLeft(elapsed, lastRound, budget time.Duration) bool {
	return elapsed+lastRound/2 < budget
}
