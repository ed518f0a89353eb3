package dataset

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"snnsec/internal/stream"
)

// EventStreamConfig parameterises the synthetic moving-glyph event
// emitter: the event-camera analogue of SynthDigits, reusing the same
// glyph templates so the stock digit checkpoints can label its windows.
type EventStreamConfig struct {
	// Size is the square sensor side (default 16, matching SynthDigits).
	Size int
	// Labels is the digit sequence shown by the stream, DwellUS each.
	Labels []int
	// DwellUS is how long each digit stays on screen (default 20ms).
	DwellUS int64
	// TickUS is the sampling tick: each tick Bernoulli-samples every
	// pixel against the glyph intensity (default 1ms).
	TickUS int64
	// Rate is the per-tick spike probability on full-intensity ink
	// (default 0.5).
	Rate float64
	// Drift slides the glyph through the canvas by this many pixels over
	// one dwell, in a per-dwell pseudo-random direction.
	Drift float64
	// Burst modulates the rate sinusoidally by ±Burst (0 ≤ Burst < 1),
	// emulating bursty sensors; 0 disables.
	Burst float64
	// BurstPeriodUS is the burst modulation period (default DwellUS/4).
	BurstPeriodUS int64
	// Noise is the per-tick probability of one spurious event at a
	// uniformly random pixel with random polarity.
	Noise float64
	// Seed pair for the deterministic generator.
	Seed1, Seed2 uint64
}

// DefaultEventStreamConfig returns the harness configuration: a 16×16
// sensor with mild drift, bursts and noise.
func DefaultEventStreamConfig(labels []int, seed uint64) EventStreamConfig {
	return EventStreamConfig{
		Size:    16,
		Labels:  labels,
		DwellUS: 20_000,
		TickUS:  1_000,
		Rate:    0.5,
		Drift:   1.5,
		Burst:   0.3,
		Noise:   0.2,
		Seed1:   seed,
		Seed2:   0x5eed,
	}
}

func (c *EventStreamConfig) validate() error {
	if c.Size < 8 {
		return fmt.Errorf("dataset: event sensor size %d too small (min 8)", c.Size)
	}
	if len(c.Labels) == 0 {
		return fmt.Errorf("dataset: event stream needs at least one label")
	}
	for _, d := range c.Labels {
		if d < 0 || d > 9 {
			return fmt.Errorf("dataset: event stream label %d outside 0..9", d)
		}
	}
	if c.DwellUS <= 0 || c.TickUS <= 0 || c.TickUS > c.DwellUS {
		return fmt.Errorf("dataset: event stream needs 0 < tick (%dus) <= dwell (%dus)", c.TickUS, c.DwellUS)
	}
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("dataset: event rate %g outside [0,1]", c.Rate)
	}
	if c.Burst < 0 || c.Burst >= 1 {
		return fmt.Errorf("dataset: burst depth %g outside [0,1)", c.Burst)
	}
	if c.BurstPeriodUS == 0 {
		c.BurstPeriodUS = c.DwellUS / 4
	}
	if c.BurstPeriodUS <= 0 {
		return fmt.Errorf("dataset: burst period must be positive, got %dus", c.BurstPeriodUS)
	}
	if c.Noise < 0 || c.Noise > 1 {
		return fmt.Errorf("dataset: noise probability %g outside [0,1]", c.Noise)
	}
	if c.Drift < 0 {
		return fmt.Errorf("dataset: drift %g must be non-negative", c.Drift)
	}
	return nil
}

// GlyphEventStream is a deterministic stream.EventSource: a glyph per
// dwell period, Bernoulli-sampled into ON events each tick, drifting
// across the sensor, with optional burst modulation and salt-and-pepper
// noise events. The generator consumes a fixed number of random draws
// per tick (one per pixel plus three for noise), so the event sequence
// depends only on the configuration — never on read-buffer sizes.
type GlyphEventStream struct {
	cfg     EventStreamConfig
	rng     *rand.Rand
	tick    int64
	ticks   int64 // total ticks in the stream
	pending []stream.Event
}

// NewGlyphEventStream validates cfg (filling in defaults) and returns
// the emitter positioned at time zero.
func NewGlyphEventStream(cfg EventStreamConfig) (*GlyphEventStream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &GlyphEventStream{
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed1, cfg.Seed2)),
		ticks: int64(len(cfg.Labels)) * cfg.DwellUS / cfg.TickUS,
	}, nil
}

// EndUS returns the stream's total duration: one dwell per label.
func (g *GlyphEventStream) EndUS() int64 { return int64(len(g.cfg.Labels)) * g.cfg.DwellUS }

// Read fills buf with the next events in non-decreasing time order,
// returning io.EOF once the final dwell has elapsed.
func (g *GlyphEventStream) Read(buf []stream.Event) (int, error) {
	for len(g.pending) == 0 {
		if g.tick >= g.ticks {
			return 0, io.EOF
		}
		g.emitTick()
		g.tick++
	}
	n := copy(buf, g.pending)
	g.pending = g.pending[n:]
	return n, nil
}

// emitTick Bernoulli-samples every pixel of the current glyph pose into
// pending, then the noise draw. Draw count per tick is fixed: Size²
// pixel draws plus three noise draws.
func (g *GlyphEventStream) emitTick() {
	c := &g.cfg
	now := g.tick * c.TickUS
	dwell := now / c.DwellUS
	d := c.Labels[dwell]
	phase := float64(now-dwell*c.DwellUS) / float64(c.DwellUS) // ∈ [0,1)

	// Per-dwell drift direction from the golden-ratio sequence: cheap,
	// well-spread, and independent of the rng stream.
	const phi = 0.6180339887498949
	angle := 2 * math.Pi * math.Mod(float64(dwell+1)*phi, 1)
	ox := c.Drift * (phase - 0.5) * math.Cos(angle)
	oy := c.Drift * (phase - 0.5) * math.Sin(angle)

	rate := c.Rate
	if c.Burst > 0 {
		rate *= 1 + c.Burst*math.Sin(2*math.Pi*float64(now)/float64(c.BurstPeriodUS))
	}

	// Same glyph-box mapping as renderDigit: ~70% of the canvas.
	size := float64(c.Size)
	gw, gh := float64(glyphW), float64(glyphH)
	fit := 0.7 * size / math.Max(gw, gh)
	cx, cy := size/2+ox, size/2+oy

	g.pending = g.pending[:0]
	for py := 0; py < c.Size; py++ {
		for px := 0; px < c.Size; px++ {
			u := g.rng.Float64()
			gx := (float64(px)+0.5-cx)/fit + gw/2
			gy := (float64(py)+0.5-cy)/fit + gh/2
			p := rate * glyphField(d, gx-0.5, gy-0.5)
			if p > 1 {
				p = 1
			}
			if u < p {
				g.pending = append(g.pending, stream.Event{TimeUS: now, X: px, Y: py, Pol: 1})
			}
		}
	}
	u := g.rng.Float64()
	pix := g.rng.IntN(c.Size * c.Size)
	pol := 1 - 2*g.rng.IntN(2)
	if u < c.Noise {
		g.pending = append(g.pending, stream.Event{TimeUS: now, X: pix % c.Size, Y: pix / c.Size, Pol: pol})
	}
}
