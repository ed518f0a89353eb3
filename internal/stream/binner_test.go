package stream

import (
	"testing"

	"snnsec/internal/tensor"
)

func collectWindows(t *testing.T, b *Binner, evs []Event, endUS int64) ([]*Window, int) {
	t.Helper()
	var out []*Window
	emit := func(w *Window) error { out = append(out, w); return nil }
	for _, ev := range evs {
		if err := b.Add(ev, emit); err != nil {
			t.Fatalf("Add(%+v): %v", ev, err)
		}
	}
	dropped, err := b.Drain(endUS, emit)
	if err != nil {
		t.Fatalf("Drain(%d): %v", endUS, err)
	}
	return out, dropped
}

// bitsOf returns the dense 0/1 elements of a packed plane.
func bitsOf(p *tensor.SpikeTensor) []float64 {
	return p.DenseInto(nil, tensor.New(p.Shape()...)).Data()
}

// TestBinnerTiling pins the contiguous-tiling case: every event lands in
// exactly one window and one slice, empty windows are emitted for
// silence, and the packed planes hold exactly the events' pixels.
func TestBinnerTiling(t *testing.T) {
	b, err := NewBinner(BinnerConfig{H: 4, W: 4, Steps: 2, WindowUS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !b.cfg.Tiling() {
		t.Fatal("hop defaulting to window should report Tiling")
	}
	evs := []Event{
		{TimeUS: 0, X: 0, Y: 0, Pol: 1},    // window 0, slice 0
		{TimeUS: 49, X: 1, Y: 2, Pol: 1},   // window 0, slice 0
		{TimeUS: 50, X: 3, Y: 3, Pol: -1},  // window 0, slice 1
		{TimeUS: 260, X: 2, Y: 1, Pol: 1},  // window 2, slice 1 (window 1 silent)
		{TimeUS: 399, X: 2, Y: 1, Pol: 1},  // window 3, slice 1
		{TimeUS: 399, X: 2, Y: 1, Pol: -1}, // duplicate pixel, same slice
	}
	wins, dropped := collectWindows(t, b, evs, 400)
	if dropped != 0 {
		t.Fatalf("dropped %d windows, want 0", dropped)
	}
	if len(wins) != 4 {
		t.Fatalf("got %d windows, want 4", len(wins))
	}
	wantEvents := []int{3, 0, 1, 2}
	for i, w := range wins {
		if w.Index != int64(i) || w.StartUS != int64(i)*100 || w.EndUS != int64(i+1)*100 {
			t.Fatalf("window %d: index %d span [%d,%d)", i, w.Index, w.StartUS, w.EndUS)
		}
		if w.Events != wantEvents[i] {
			t.Fatalf("window %d: %d events, want %d", i, w.Events, wantEvents[i])
		}
		if len(w.Planes) != 2 {
			t.Fatalf("window %d: %d planes, want 2", i, len(w.Planes))
		}
	}
	// Window 0 slice 0: pixels (0,0) and (2,1) set; slice 1: (3,3).
	for i, set := range [][]int{{0, 2*4 + 1}, {3*4 + 3}} {
		got := wins[0].Planes[i]
		if got.Count() != len(set) {
			t.Fatalf("window 0 plane %d: %d spikes, want %d", i, got.Count(), len(set))
		}
		for _, c := range set {
			if bitsOf(got)[c] != 1 {
				t.Fatalf("window 0 plane %d bit %d not set", i, c)
			}
		}
	}
	if wins[1].Events != 0 || wins[1].Planes[0].Count() != 0 {
		t.Fatal("silent window 1 should be empty, not skipped")
	}
	// Duplicate events on one pixel in one slice pack to one bit.
	if got := wins[3].Planes[1].Count(); got != 1 {
		t.Fatalf("window 3 slice 1 has %d bits, want 1 (duplicates fold)", got)
	}
	for _, w := range wins {
		w.Release()
	}
}

// TestBinnerOverlap pins hop < window: an event lands in every window
// whose span contains it, at the right per-window slice.
func TestBinnerOverlap(t *testing.T) {
	b, err := NewBinner(BinnerConfig{H: 2, W: 2, Steps: 2, WindowUS: 100, HopUS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if b.cfg.Tiling() {
		t.Fatal("hop < window must not report Tiling")
	}
	// Event at t=60: window 0 [0,100) slice 1, window 1 [50,150) slice 0.
	wins, dropped := collectWindows(t, b, []Event{{TimeUS: 60, X: 1, Y: 1, Pol: 1}}, 150)
	if dropped != 1 { // window 2 [100,200) started but incomplete
		t.Fatalf("dropped %d, want 1", dropped)
	}
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2", len(wins))
	}
	if wins[0].Planes[0].Count() != 0 || wins[0].Planes[1].Count() != 1 {
		t.Fatal("window 0 should hold the event in slice 1")
	}
	if wins[1].Planes[0].Count() != 1 || wins[1].Planes[1].Count() != 0 {
		t.Fatal("window 1 should hold the event in slice 0")
	}
}

// TestBinnerGapHop pins hop > window: events in the gaps belong to no
// window.
func TestBinnerGapHop(t *testing.T) {
	b, err := NewBinner(BinnerConfig{H: 2, W: 2, Steps: 1, WindowUS: 50, HopUS: 100})
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		{TimeUS: 10, X: 0, Y: 0, Pol: 1},  // window 0 [0,50)
		{TimeUS: 60, X: 1, Y: 0, Pol: 1},  // gap
		{TimeUS: 110, X: 0, Y: 1, Pol: 1}, // window 1 [100,150)
	}
	wins, _ := collectWindows(t, b, evs, 200)
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2", len(wins))
	}
	if wins[0].Events != 1 || wins[1].Events != 1 {
		t.Fatalf("events per window %d/%d, want 1/1 (gap event binned?)", wins[0].Events, wins[1].Events)
	}
}

// TestBinnerChannels pins the 2-channel polarity split and the folded
// default.
func TestBinnerChannels(t *testing.T) {
	b2, err := NewBinner(BinnerConfig{H: 2, W: 2, Channels: 2, Steps: 1, WindowUS: 10})
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{{TimeUS: 1, X: 1, Y: 0, Pol: 1}, {TimeUS: 2, X: 1, Y: 0, Pol: -1}}
	wins, _ := collectWindows(t, b2, evs, 10)
	p := wins[0].Planes[0]
	if got := p.Shape(); got[1] != 2 {
		t.Fatalf("plane shape %v, want 2 channels", got)
	}
	if d := bitsOf(p); d[1] != 1 || d[4+1] != 1 || p.Count() != 2 {
		t.Fatal("ON should land on channel 0, OFF on channel 1")
	}
}

// TestBinnerRejects pins the strict input contract.
func TestBinnerRejects(t *testing.T) {
	emit := func(*Window) error { return nil }
	b, _ := NewBinner(BinnerConfig{H: 2, W: 2, Steps: 1, WindowUS: 10})
	if err := b.Add(Event{TimeUS: 5, X: 0, Y: 0, Pol: 1}, emit); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Event{TimeUS: 4, X: 0, Y: 0, Pol: 1}, emit); err == nil {
		t.Fatal("time going backwards must be rejected")
	}
	if err := b.Add(Event{TimeUS: 6, X: 2, Y: 0, Pol: 1}, emit); err == nil {
		t.Fatal("out-of-range X must be rejected")
	}
	if err := b.Add(Event{TimeUS: 6, X: 0, Y: 0, Pol: 0}, emit); err == nil {
		t.Fatal("polarity 0 must be rejected")
	}
	if err := b.Add(Event{TimeUS: int64(MaxSilentWindows+2) * 10, X: 0, Y: 0, Pol: 1}, emit); err == nil {
		t.Fatal("a time jump past MaxSilentWindows must be rejected")
	}
	if _, err := NewBinner(BinnerConfig{H: 2, W: 2, Steps: 3, WindowUS: 10}); err == nil {
		t.Fatal("window not divisible by steps must be rejected")
	}
	if _, err := NewBinner(BinnerConfig{H: 2, W: 2, Channels: 3, Steps: 1, WindowUS: 10}); err == nil {
		t.Fatal("3 channels must be rejected")
	}
}

// TestBinnerReset pins that Reset drops open windows and suppresses the
// empty back-fill up to the next event.
func TestBinnerReset(t *testing.T) {
	var wins []*Window
	emit := func(w *Window) error { wins = append(wins, w); return nil }
	b, _ := NewBinner(BinnerConfig{H: 2, W: 2, Steps: 1, WindowUS: 10})
	if err := b.Add(Event{TimeUS: 5, X: 0, Y: 0, Pol: 1}, emit); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	// Far ahead: without the reset this would back-fill ~100 empty
	// windows; with it the stream resumes at the event's own window.
	if err := b.Add(Event{TimeUS: 1001, X: 1, Y: 1, Pol: 1}, emit); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Drain(1010, emit); err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 {
		t.Fatalf("got %d windows after reset, want 1", len(wins))
	}
	if wins[0].Index != 100 || wins[0].Events != 1 {
		t.Fatalf("window after reset: index %d events %d, want 100/1 (pre-reset event leaked?)", wins[0].Index, wins[0].Events)
	}
}

// TestBinnerReusesReleasedWindows pins the window lifetime a session
// relies on: a window released before the next one is packed carries the
// next one — same window, same plane headers, same counts, new contents
// — while a window still held is never reused, and a released plane has
// no shape left to read.
func TestBinnerReusesReleasedWindows(t *testing.T) {
	b, err := NewBinner(BinnerConfig{H: 2, W: 2, Steps: 2, WindowUS: 10})
	if err != nil {
		t.Fatal(err)
	}
	var seen []*Window
	var first *tensor.SpikeTensor
	release := func(w *Window) error {
		seen = append(seen, w)
		if first == nil {
			first = w.Planes[1]
		}
		if got := w.Planes[1].Count(); got != int(w.Index%2) {
			t.Errorf("window %d slice 1 holds %d spikes, want %d", w.Index, got, w.Index%2)
		}
		w.Release()
		return nil
	}
	// Windows 1 and 3 see one event in slice 1; 0 and 2 are silent.
	for _, ev := range []Event{{TimeUS: 15, X: 1, Y: 1, Pol: 1}, {TimeUS: 35, X: 0, Y: 1, Pol: 1}} {
		if err := b.Add(ev, release); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Drain(40, release); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("got %d windows, want 4", len(seen))
	}
	for i, w := range seen[1:] {
		if w != seen[0] {
			t.Errorf("window %d is a new window; the released one was not reused", i+1)
		}
	}
	if first.Shape() != nil {
		t.Errorf("a released plane still reads shape %v", first.Shape())
	}

	held, _ := collectWindows(t, b, []Event{{TimeUS: 41, X: 0, Y: 0, Pol: 1}}, 70)
	if len(held) != 3 {
		t.Fatalf("got %d held windows, want 3", len(held))
	}
	if held[0] != seen[0] {
		t.Error("the released window did not carry the next one")
	}
	if held[1] == held[0] || held[2] == held[1] || held[2] == held[0] {
		t.Error("a held window was packed over: only a released one may be reused")
	}
	if held[0].Planes[0].Count() != 1 || held[1].Planes[0].Count() != 0 {
		t.Error("held windows do not keep their own planes")
	}
	for _, w := range held {
		w.Release()
	}
}
