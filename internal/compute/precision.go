package compute

import (
	"fmt"
	"sync/atomic"
)

// Precision selects the numerics tier every kernel in the process runs
// at. The default tier (Float64) is the bit-exactness contract the whole
// repository is built on: every result is bit-identical to the float64
// reference kernels, across backends and kernel generations. The fast
// tier (Float32) is an explicit opt-in that trades those last ulps for
// raw speed — float32 storage in the matmul hot path (half the memory
// traffic, double the SIMD lanes), FMA+AVX2 micro-kernels where the CPU
// has them, and pairwise-tree scalar reductions. Fast-tier results are
// still run-to-run deterministic on a given machine (fixed reduction
// orders, fixed tree shapes), but they are NOT bit-identical to the
// default tier.
type Precision int32

const (
	// Float64 is the default, bit-exact tier.
	Float64 Precision = iota
	// Float32 is the opt-in fast tier.
	Float32
)

// String returns the canonical flag spelling of the tier.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("Precision(%d)", int32(p))
	}
}

// Tag returns the wire spelling of the tier: the empty string for the
// default tier (so default-tier artifacts — result JSON, checkpoints,
// protocol messages — are byte-identical to those written before tiers
// existed) and the flag spelling for anything else.
func (p Precision) Tag() string {
	if p == Float64 {
		return ""
	}
	return p.String()
}

// ParsePrecision maps a flag/wire spelling to a tier. Accepted values:
// "float64" (or "exact", "default", "") for the default tier and
// "float32" (or "fast") for the fast tier. Anything else is an error —
// callers must reject unknown spellings rather than silently defaulting.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float64", "exact", "default":
		return Float64, nil
	case "float32", "fast":
		return Float32, nil
	default:
		return Float64, fmt.Errorf("compute: unknown precision %q (want float64|exact or float32|fast)", s)
	}
}

var activePrecision atomic.Int32

// SetPrecision selects the process-wide numerics tier. Kernels consult
// it per call, so a change applies to the next kernel recorded; recorded
// pullbacks run at whatever tier is active when Backward executes, which
// is why grid runs pin the tier per process and reject mixed-tier
// merges.
func SetPrecision(p Precision) { activePrecision.Store(int32(p)) }

// ActivePrecision returns the process-wide numerics tier.
func ActivePrecision() Precision { return Precision(activePrecision.Load()) }

// FastTier reports whether the float32 fast tier is active. The zero
// value of the process is the default tier, so no init is needed.
func FastTier() bool { return activePrecision.Load() == int32(Float32) }
