package dataset

import (
	"io"
	"testing"

	"snnsec/internal/stream"
)

func drainEvents(t *testing.T, g *GlyphEventStream, bufLen int) []stream.Event {
	t.Helper()
	var all []stream.Event
	buf := make([]stream.Event, bufLen)
	for {
		n, err := g.Read(buf)
		all = append(all, buf[:n]...)
		if err == io.EOF {
			if n != 0 {
				t.Fatal("EOF with a non-zero count")
			}
			return all
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
}

// TestGlyphEventStreamDeterministic pins the reproducibility contract:
// the event sequence depends only on the configuration, not on the
// read-buffer size, and reseeding reproduces it exactly.
func TestGlyphEventStreamDeterministic(t *testing.T) {
	cfg := DefaultEventStreamConfig([]int{3, 7}, 42)
	a, err := NewGlyphEventStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGlyphEventStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evA := drainEvents(t, a, 7) // deliberately awkward buffer size
	evB := drainEvents(t, b, 1024)
	if len(evA) == 0 {
		t.Fatal("stream produced no events")
	}
	if len(evA) != len(evB) {
		t.Fatalf("event counts differ: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, evA[i], evB[i])
		}
	}
}

// TestGlyphEventStreamWellFormed pins the EventSource contract the
// binner enforces: non-decreasing time, in-range coordinates, ±1
// polarity, and an end time matching EndUS.
func TestGlyphEventStreamWellFormed(t *testing.T) {
	cfg := DefaultEventStreamConfig([]int{0, 1, 2}, 7)
	g, err := NewGlyphEventStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.EndUS() != 3*cfg.DwellUS {
		t.Fatalf("EndUS %d, want %d", g.EndUS(), 3*cfg.DwellUS)
	}
	last := int64(-1)
	for _, ev := range drainEvents(t, g, 256) {
		if ev.TimeUS < last {
			t.Fatalf("time went backwards: %d after %d", ev.TimeUS, last)
		}
		last = ev.TimeUS
		if ev.X < 0 || ev.X >= cfg.Size || ev.Y < 0 || ev.Y >= cfg.Size {
			t.Fatalf("event off-sensor: %+v", ev)
		}
		if ev.Pol != 1 && ev.Pol != -1 {
			t.Fatalf("bad polarity: %+v", ev)
		}
	}
	if last >= g.EndUS() {
		t.Fatalf("event at %dus at or past EndUS %d", last, g.EndUS())
	}
}

// TestGlyphEventStreamSignal pins that the stream actually carries the
// glyph: with noise off, every event must land on a pixel where the
// (possibly drifted) glyph has ink — i.e. inside the glyph's bounding
// region — and each dwell produces substantially more events than
// silence.
func TestGlyphEventStreamSignal(t *testing.T) {
	cfg := DefaultEventStreamConfig([]int{8}, 5)
	cfg.Noise = 0
	cfg.Drift = 0
	g, err := NewGlyphEventStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := drainEvents(t, g, 256)
	ticks := cfg.DwellUS / cfg.TickUS
	if int64(len(evs)) < ticks { // digit 8 has ~20 ink pixels at rate 0.5
		t.Fatalf("only %d events over %d ticks — no glyph signal", len(evs), ticks)
	}
	// With no drift the static pose means ink occupies a fixed pixel set;
	// every event must be on it. Rebuild the set via the same field.
	for _, ev := range evs {
		size := float64(cfg.Size)
		fit := 0.7 * size / 7.0
		gx := (float64(ev.X)+0.5-size/2)/fit + 2.5
		gy := (float64(ev.Y)+0.5-size/2)/fit + 3.5
		if glyphField(8, gx-0.5, gy-0.5) <= 0 {
			t.Fatalf("event %+v off the glyph ink", ev)
		}
	}
}

// TestGlyphEventStreamRejects pins config validation.
func TestGlyphEventStreamRejects(t *testing.T) {
	bad := []EventStreamConfig{
		{Size: 4, Labels: []int{1}, DwellUS: 10, TickUS: 1, Rate: 0.5},
		{Size: 16, Labels: nil, DwellUS: 10, TickUS: 1, Rate: 0.5},
		{Size: 16, Labels: []int{11}, DwellUS: 10, TickUS: 1, Rate: 0.5},
		{Size: 16, Labels: []int{1}, DwellUS: 10, TickUS: 20, Rate: 0.5},
		{Size: 16, Labels: []int{1}, DwellUS: 10, TickUS: 1, Rate: 1.5},
		{Size: 16, Labels: []int{1}, DwellUS: 10, TickUS: 1, Rate: 0.5, Burst: 1},
		{Size: 16, Labels: []int{1}, DwellUS: 10, TickUS: 1, Rate: 0.5, Noise: 2},
	}
	for i, cfg := range bad {
		if _, err := NewGlyphEventStream(cfg); err == nil {
			t.Fatalf("config %d should have been rejected", i)
		}
	}
}
