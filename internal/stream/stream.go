// Package stream is the event-driven inference subsystem: it turns an
// asynchronous stream of (t, x, y, polarity) sensor events into
// classifications over a rolling time window, without staging a dense
// input tensor.
//
// The pipeline is three stages. A Binner slices time into overlapping or
// tiling windows of Steps equal slices and scatter-packs each slice's
// events straight into a bit-packed tensor.SpikeTensor plane (the
// tensor.ScatterSpikesInto kernel — the dense encode PackSpikesOn performs
// never happens). A
// serve.StatefulRunner then advances the network's own timestep
// (snn.Network.Step) one window at a time on packed-only constants,
// carrying every population's membrane across window boundaries when
// windows tile (hop == window); windows are transactional — a failed
// window never touched the carried state and fails alone. A Server
// speaks the streaming variant of the serve line protocol: one
// connection, many windowed results, graceful drain.
//
// Equivalence contract: a single full-window stream run is bit-identical
// to the batch serve engine (the network's Logits) fed the same binned
// planes through snn.SpikeTrainEncoder, and a carried-state run's
// window logits are bit-identical, window for window, to one run over
// the concatenated windows — pinned by the suite in
// internal/serve/stateful_test.go and equivalence_test.go here.
package stream

// Event is one sensor event: something changed at pixel (X, Y) at
// TimeUS microseconds since stream start, with polarity Pol (+1 ON,
// -1 OFF). Sources yield events in non-decreasing TimeUS order.
type Event struct {
	TimeUS int64
	X, Y   int
	Pol    int
}

// EventSource yields a finite or unbounded event stream in
// non-decreasing time order.
type EventSource interface {
	// Read fills buf with the next events and returns how many it wrote.
	// It returns io.EOF (with n == 0) when the stream has ended, and may
	// return short counts at any time.
	Read(buf []Event) (int, error)
}
