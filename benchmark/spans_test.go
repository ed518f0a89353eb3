package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Self time is a span's duration minus the part its children cover;
// children that overlap one another are covered once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "lap", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "point", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "point", Start: 30, End: 60}, // overlaps span 2: a second worker
		{ID: 4, Parent: 1, Name: "point", Start: 70, End: 80},
		{ID: 5, Parent: 2, Name: "train", Start: 10, End: 35},
		{ID: 6, Parent: 4, Name: "train", Start: 72, End: 120}, // clipped to its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"lap":   100 - (50 + 10),           // [10,60] ∪ [70,80]
		"point": (30 - 25) + 30 + (10 - 8), // span 2 less its child, span 3, span 4 less its clipped child
		"train": 25 + 48,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestSpanLogRoundTrip(t *testing.T) {
	l := newSpanLog()
	lap := l.begin("lap", 0, 3)
	d := l.time("call", lap, 3, func() {})
	l.end(lap)
	if got := l.sum("call", 3); got != d {
		t.Errorf("sum = %v, want the one span's %v", got, d)
	}
	if got := l.sum("call", 2); got != 0 {
		t.Errorf("sum over another lap = %v, want 0", got)
	}
	path := filepath.Join(t.TempDir(), "nested", "spans.jsonl")
	if err := l.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if len(back) != 2 || back[1].Parent != back[0].ID || back[1].Name != "call" || back[1].Lap != 3 {
		t.Errorf("spans read back: %+v", back)
	}
}

// busy ÷ workers + meanIdle must be the lap wall, also when a worker never
// got a point.
func TestMeanIdleCountsAWorkerWithoutAPoint(t *testing.T) {
	t0 := time.Unix(100, 0)
	end := t0.Add(4 * time.Second)
	// Worker 0 worked the whole lap, worker 1 stopped after 2 s, worker 2
	// never got a point: busy 6 s over 3 workers, idle (0 + 2 + 4) / 3.
	workerEnd := []time.Time{end, t0.Add(2 * time.Second), {}}
	idle := meanIdle(t0, end, workerEnd)
	if want := 2 * time.Second; idle != want {
		t.Errorf("meanIdle = %v, want %v", idle, want)
	}
	if got, want := 6*time.Second/3+idle, end.Sub(t0); got != want {
		t.Errorf("busy/workers + idle = %v, want the lap wall %v", got, want)
	}
}
