package stream

import (
	"fmt"

	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// MaxSilentWindows bounds how many consecutive windows a single event
// may complete at once. A stream that jumps that far ahead in time
// (ordinarily a corrupt or hostile timestamp) is rejected instead of
// making the binner emit an unbounded run of empty windows. Genuine
// silence below the limit does emit empty windows — the leaky membrane
// integrates silence like any other input, so skipping quiet windows
// would change carried-state results.
const MaxSilentWindows = 4096

// BinnerConfig describes the sensor geometry and the rolling window.
type BinnerConfig struct {
	// H, W is the sensor geometry; events carry 0-based (X, Y) with
	// X < W, Y < H.
	H, W int
	// Channels is 1 (polarity folded into one plane) or 2 (ON events on
	// channel 0, OFF on channel 1). The stock checkpoints are trained on
	// single-channel images, so 1 is the default everywhere.
	Channels int
	// Steps is the number of equal time slices per window — one packed
	// plane each, the T of the network consuming them.
	Steps int
	// WindowUS is the window length in microseconds; must be divisible
	// by Steps.
	WindowUS int64
	// HopUS is the distance between window starts; 0 selects WindowUS
	// (contiguous tiling, the only arrangement carried membrane state
	// composes with). HopUS < WindowUS overlaps windows; HopUS >
	// WindowUS samples with gaps.
	HopUS int64
}

func (c *BinnerConfig) validate() error {
	if c.H <= 0 || c.W <= 0 {
		return fmt.Errorf("stream: bad sensor geometry %dx%d", c.W, c.H)
	}
	if c.Channels == 0 {
		c.Channels = 1
	}
	if c.Channels != 1 && c.Channels != 2 {
		return fmt.Errorf("stream: channels must be 1 or 2, got %d", c.Channels)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("stream: steps must be positive, got %d", c.Steps)
	}
	if c.WindowUS <= 0 {
		return fmt.Errorf("stream: window must be positive, got %dus", c.WindowUS)
	}
	if c.WindowUS%int64(c.Steps) != 0 {
		return fmt.Errorf("stream: window %dus is not divisible by %d steps", c.WindowUS, c.Steps)
	}
	if c.HopUS == 0 {
		c.HopUS = c.WindowUS
	}
	if c.HopUS < 0 {
		return fmt.Errorf("stream: hop must be positive, got %dus", c.HopUS)
	}
	return nil
}

// Tiling reports whether windows tile time exactly (hop == window) —
// the arrangement under which carried membrane state is a faithful
// continuous simulation.
func (c BinnerConfig) Tiling() bool { return c.HopUS == c.WindowUS || c.HopUS == 0 }

// Window is one completed rolling window: Steps packed spike planes of
// shape [1, Channels, H, W], one per time slice. The planes' bit slab
// comes from the shared arena; call Release when done with them.
type Window struct {
	// Index is the window's position on the hop grid: it spans
	// [Index·hop, Index·hop + window).
	Index   int64
	StartUS int64
	EndUS   int64
	// Events is how many events landed in the window (after folding;
	// duplicates on one pixel in one slice still count individually).
	Events int
	Planes []*tensor.SpikeTensor
	bits   []uint64
	// The planes' headers and row counts, and the binner that packs its
	// next window into them once this one is released.
	headers []tensor.SpikeTensor
	counts  []int
	binner  *Binner
}

// Release returns the window's bit slab to the arena and the window to
// its binner, which packs a later window into the same planes: neither
// the window nor its planes may be used afterwards. Like the binner's
// own methods, it must not run concurrently with them.
func (w *Window) Release() {
	if w.bits != nil {
		compute.PutUint64(w.bits)
		w.bits = nil
		w.Planes = w.Planes[:0]
		clear(w.headers)
		w.binner.spare = append(w.binner.spare, w)
	}
}

// winState is an open (still-filling) window: per-slice lists of set
// element indices, scatter-packed only when the window completes.
type winState struct {
	events int
	idx    [][]int // Steps reusable index lists
}

// Binner scatters a time-ordered event stream into completed windows.
// Not safe for concurrent use; one binner per session.
type Binner struct {
	cfg      BinnerConfig
	words    int // words per plane row (rows == 1)
	open     map[int64]*winState
	free     []*winState
	spare    []*Window // released windows, for pack to reuse
	nextEmit int64     // lowest window index not yet emitted
	lastUS   int64     // last event time seen, for the monotonicity check
	skipTo   bool      // after Reset: fast-forward nextEmit to the next event
}

// NewBinner validates cfg (filling in defaults) and returns a binner.
func NewBinner(cfg BinnerConfig) (*Binner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cols := cfg.Channels * cfg.H * cfg.W
	return &Binner{
		cfg:   cfg,
		words: (cols + 63) / 64,
		open:  make(map[int64]*winState),
	}, nil
}

// Add feeds one event, emitting (in index order) every window the
// event's timestamp proves complete — including empty ones, see
// MaxSilentWindows. Events must arrive in non-decreasing time order
// with in-range coordinates and polarity ±1; violations are errors and
// leave the binner unchanged.
func (b *Binner) Add(ev Event, emit func(*Window) error) error {
	c := &b.cfg
	if ev.TimeUS < b.lastUS {
		return fmt.Errorf("stream: event time %dus went backwards (last %dus)", ev.TimeUS, b.lastUS)
	}
	if ev.X < 0 || ev.X >= c.W || ev.Y < 0 || ev.Y >= c.H {
		return fmt.Errorf("stream: event at (%d,%d) outside %dx%d sensor", ev.X, ev.Y, c.W, c.H)
	}
	if ev.Pol != 1 && ev.Pol != -1 {
		return fmt.Errorf("stream: event polarity %d (want +1 or -1)", ev.Pol)
	}
	// kMin is the first window still containing ev; everything before it
	// is complete (or, right after Reset, silently skipped).
	kMin := int64(0)
	if past := ev.TimeUS - c.WindowUS; past >= 0 {
		kMin = past/c.HopUS + 1
	}
	if b.skipTo {
		if kMin > b.nextEmit {
			b.nextEmit = kMin
		}
		b.skipTo = false
	}
	if err := b.emitThrough(kMin, emit); err != nil {
		return err
	}
	b.lastUS = ev.TimeUS
	kMax := ev.TimeUS / c.HopUS
	ch := 0
	if c.Channels == 2 && ev.Pol < 0 {
		ch = 1
	}
	elem := ch*c.H*c.W + ev.Y*c.W + ev.X
	// When hop > window an event can fall in a gap: then kMin > kMax and
	// the loop body never runs.
	for k := max(kMin, b.nextEmit); k <= kMax; k++ {
		start := k * c.HopUS
		st := b.open[k]
		if st == nil {
			st = b.newWinState()
			b.open[k] = st
		}
		s := (ev.TimeUS - start) / (c.WindowUS / int64(c.Steps))
		st.idx[s] = append(st.idx[s], elem)
		st.events++
	}
	return nil
}

// Drain completes the stream at endUS: every window whose span ends at
// or before endUS is emitted (empty or not); windows still in progress
// are dropped. Returns how many partial windows were dropped. The
// binner remains usable — a later event at or after endUS continues the
// stream.
func (b *Binner) Drain(endUS int64, emit func(*Window) error) (dropped int, err error) {
	if endUS < b.lastUS {
		return 0, fmt.Errorf("stream: drain time %dus before last event %dus", endUS, b.lastUS)
	}
	kDone := int64(0)
	if past := endUS - b.cfg.WindowUS; past >= 0 {
		kDone = past/b.cfg.HopUS + 1
	}
	if b.skipTo {
		if kDone > b.nextEmit {
			b.nextEmit = kDone
		}
		b.skipTo = false
	}
	if err := b.emitThrough(kDone, emit); err != nil {
		return 0, err
	}
	b.lastUS = endUS
	// Dropped = every window that started before endUS but was not
	// emitted (whether or not it saw events), plus any boundary window
	// opened exactly at endUS.
	started := (endUS + b.cfg.HopUS - 1) / b.cfg.HopUS
	for k, st := range b.open {
		b.recycle(st)
		delete(b.open, k)
		if k >= started {
			dropped++
		}
	}
	if started > b.nextEmit {
		dropped += int(started - b.nextEmit)
	}
	b.skipTo = true
	return dropped, nil
}

// Reset drops every open window and suppresses the empty-window
// back-fill up to the next event — the binner half of a stream reset
// (the runner half is StatefulRunner.Reset).
func (b *Binner) Reset() {
	for k, st := range b.open {
		b.recycle(st)
		delete(b.open, k)
	}
	b.skipTo = true
}

// emitThrough packs and emits windows nextEmit..kEnd-1 in order.
func (b *Binner) emitThrough(kEnd int64, emit func(*Window) error) error {
	if kEnd-b.nextEmit > MaxSilentWindows {
		return fmt.Errorf("stream: time jump would emit %d consecutive windows (max %d); reset the stream instead",
			kEnd-b.nextEmit, MaxSilentWindows)
	}
	for k := b.nextEmit; k < kEnd; k++ {
		w := b.pack(k)
		b.nextEmit = k + 1
		if err := emit(w); err != nil {
			return err
		}
	}
	return nil
}

// pack scatter-packs window k's per-slice index lists into spike planes
// backed by one pooled bit slab, in a released window's planes when
// there is one. An absent state packs an all-zero window — silence, not
// an error.
func (b *Binner) pack(k int64) *Window {
	c := &b.cfg
	st := b.open[k]
	if st != nil {
		delete(b.open, k)
	}
	w := b.newWindow()
	w.Index, w.StartUS, w.EndUS, w.Events = k, k*c.HopUS, k*c.HopUS+c.WindowUS, 0
	w.bits = compute.GetUint64(c.Steps * b.words)
	for s := 0; s < c.Steps; s++ {
		var idx []int
		if st != nil {
			idx = st.idx[s]
		}
		slab := w.bits[s*b.words : (s+1)*b.words]
		counts := w.counts[s : s+1]
		tensor.ScatterSpikesInto(slab, counts, idx, 1, c.Channels, c.H, c.W)
		w.Planes[s] = w.headers[s].Init(slab, counts, 1, c.Channels, c.H, c.W)
	}
	if st != nil {
		w.Events = st.events
		b.recycle(st)
	}
	return w
}

// newWindow returns a released window of the binner's, or a new one.
func (b *Binner) newWindow() *Window {
	if n := len(b.spare); n > 0 {
		w := b.spare[n-1]
		b.spare = b.spare[:n-1]
		w.Planes = w.Planes[:cap(w.Planes)]
		return w
	}
	steps := b.cfg.Steps
	return &Window{
		Planes:  make([]*tensor.SpikeTensor, steps),
		headers: make([]tensor.SpikeTensor, steps),
		counts:  make([]int, steps),
		binner:  b,
	}
}

func (b *Binner) newWinState() *winState {
	if n := len(b.free); n > 0 {
		st := b.free[n-1]
		b.free = b.free[:n-1]
		return st
	}
	return &winState{idx: make([][]int, b.cfg.Steps)}
}

func (b *Binner) recycle(st *winState) {
	st.events = 0
	for s := range st.idx {
		st.idx[s] = st.idx[s][:0]
	}
	b.free = append(b.free, st)
}
