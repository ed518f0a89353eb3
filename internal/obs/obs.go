// Package obs is the dependency-free observability core behind every
// production surface of the stack: atomic counters, gauges and
// fixed-bucket histograms collected in a named registry, a Prometheus
// text-format exposition writer for the /metrics endpoints, a small
// leveled logger, and the build/version info reported by -version,
// /healthz and the snnsec_build_info metric.
//
// Instrumentation follows faultinject's pattern: the whole layer is
// disarmed by default and every write is gated on one process-global
// atomic load, so a library user (and every test and benchmark that
// does not opt in) pays a single predictable branch per instrument
// call — the CI overhead gate holds the disarmed cost of a served
// request's instrumentation under 1% of its forward pass. The CLI arms
// the layer at startup (Arm); reads — exposition, Value accessors —
// always work, armed or not.
//
// Instruments are package-level vars registered at init into the
// default registry, so importing a package (serve, grid, stream,
// compute) is what makes its metric families appear on /metrics —
// present with zero values before any traffic, which is what lets the
// CI smoke assert the full family set from one scrape.
package obs

import "sync/atomic"

// armed is the process-global switch for metric collection. Disarmed
// (the default), every instrument write returns after one atomic load.
var armed atomic.Bool

// Arm enables metric collection process-wide. The CLI calls it once at
// startup; libraries and tests stay disarmed unless they opt in.
func Arm() { armed.Store(true) }

// Disarm disables metric collection again (used by tests to restore the
// default).
func Disarm() { armed.Store(false) }
