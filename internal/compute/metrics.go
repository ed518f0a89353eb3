package compute

import "snnsec/internal/obs"

// dispatchCounters pre-resolves every (family, choice) series at package
// init so the UseSparse hot path pays one gated atomic increment — no
// map lookup, no allocation. Indexed [KernelFamily][chose-sparse].
var dispatchCounters [3][2]*obs.Counter

func init() {
	vec := obs.NewCounterVec("snnsec_compute_dispatch_total",
		"Sparse-vs-dense kernel dispatch decisions, by kernel family and chosen path.",
		"family", "choice")
	for f, name := range []string{"matmul", "conv", "pool"} {
		dispatchCounters[f][0] = vec.With(name, "dense")
		dispatchCounters[f][1] = vec.With(name, "sparse")
	}
}

// countDispatch records one dispatch decision for metrics.
func countDispatch(f KernelFamily, sparse bool) {
	if f < 0 || int(f) >= len(dispatchCounters) {
		return
	}
	i := 0
	if sparse {
		i = 1
	}
	dispatchCounters[f][i].Inc()
}
