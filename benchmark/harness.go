package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"slices"
	"time"
)

// lapOut is what one lap hands back to the harness.
type lapOut struct {
	ops, failed int
	// hash digests the lap's result; every timed lap of a kind must
	// return the warm-up lap's hash.
	hash uint64
	// latencyMS is what one caller waited in this lap and workPerS the
	// lap's throughput; a lap kind that has no such reading leaves 0 and
	// is left out of that reading.
	latencyMS, workPerS float64
	// countAllocs puts the lap's allocation deltas and ops into the
	// per-op allocation metrics.
	countAllocs bool
}

// workload is one of the four benchmark workloads. setup builds inputs
// and checkpoints from the seed and returns the set-up time to report;
// check runs the untimed correctness gates that need no lap; lap runs one
// lap of the given kind (kinds are alternated round-robin); traced runs
// the traced laps and probes and fills the per-layer metrics.
type workload interface {
	// procs is the GOMAXPROCS the whole run is held to: 1 for a workload
	// whose laps are one goroutine or steadier on one P, 0 for the
	// runtime's default.
	procs() int
	setup(seed uint64) (seconds float64, err error)
	check(g *gates)
	kinds() int
	lap(kind int) (lapOut, error)
	traced(r *tracedRun) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "alg1_sweep":
		return &alg1Sweep{}, nil
	case "pgd_curves":
		return &pgdCurves{}, nil
	case "serve_requests":
		return &serveRequests{}, nil
	case "stream_session":
		return &streamSession{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// gates collects correctness failures; each one is counted into the
// result's failed and makes the run exit non-zero.
type gates struct {
	log      io.Writer
	failures int
}

func (g *gates) failf(format string, args ...any) {
	g.failures++
	fmt.Fprintf(g.log, "GATE FAILED: "+format+"\n", args...)
}

func (g *gates) equal(what string, got, want any) {
	if got != want {
		g.failf("%s: got %v, want %v", what, got, want)
	}
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult checks that values holds exactly the metrics of defs (absent
// ones are an error unless zeroFill) and attaches the units.
func newResult(defs []metricDef, values map[string]float64, zeroFill bool) (*result, error) {
	res := &result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !zeroFill {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in names.go", name)
		}
	}
	return res, nil
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// memReading is the allocator's running totals at a lap boundary.
type memReading struct{ bytes, mallocs uint64 }

func readMem() memReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memReading{ms.TotalAlloc, ms.Mallocs}
}

// measure is the untraced run: set-up, gates, one warm-up lap per kind,
// then rounds of timed laps for the budget; every clock reading is the
// fastest timed lap's. The laps are identical, so what differs between
// them is the host, and a shared host only ever slows a lap down: over
// ten-seed campaigns the fastest lap repeated two to three times better
// than the median lap on every workload (README, "Steadiness rules").
func measure(w workload, seed uint64, budget time.Duration, log io.Writer) (*result, error) {
	g := &gates{log: log}
	setProcs(w.procs())
	setupS, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	w.check(g)

	ref := make([]uint64, w.kinds())
	for k := range ref {
		out, err := w.lap(k)
		if err != nil {
			return nil, fmt.Errorf("warm-up lap: %w", err)
		}
		ref[k] = out.hash
		g.failures += out.failed
	}

	var latency, work []float64
	var ops, failed, allocOps, laps int
	var allocBytes, allocCount uint64
	host := beginHostReading()
	start := time.Now()
	for round, lastRound := 0, time.Duration(0); round == 0 || lapsLeft(time.Since(start), lastRound, budget); round++ {
		roundStart := time.Now()
		for k := range ref {
			m0 := readMem()
			out, err := w.lap(k)
			m1 := readMem()
			if err != nil {
				return nil, fmt.Errorf("lap %d: %w", round, err)
			}
			laps++
			ops += out.ops
			failed += out.failed
			if out.hash != ref[k] {
				g.failf("lap %d (kind %d) returned result %016x, the warm-up lap %016x", round, k, out.hash, ref[k])
			}
			if out.latencyMS > 0 {
				latency = append(latency, out.latencyMS)
			}
			if out.workPerS > 0 {
				work = append(work, out.workPerS)
			}
			if out.countAllocs {
				allocOps += out.ops
				allocBytes += m1.bytes - m0.bytes
				allocCount += m1.mallocs - m0.mallocs
			}
		}
		lastRound = time.Since(roundStart)
	}
	if allocOps == 0 || len(work) == 0 || len(latency) == 0 {
		return nil, fmt.Errorf("no lap counted its allocations, or none reported a throughput or a latency")
	}
	res, err := newResult(endToEnd, map[string]float64{
		"setup_s":         setupS,
		"work_per_s":      slices.Max(work),
		"latency_ms":      slices.Min(latency),
		"alloc_kb_per_op": float64(allocBytes) / 1000 / float64(allocOps),
		"allocs_per_op":   float64(allocCount) / float64(allocOps),
	}, false)
	if err != nil {
		return nil, err
	}
	calibMS, steal := host.end()
	fmt.Fprintf(log, "%d timed laps, %d ops; per lap: latency_ms min %.4g median %.4g max %.4g, work_per_s min %.4g median %.4g max %.4g; host: calib_ms=%.4f steal_pct=%.3f\n",
		laps, ops, percentile(latency, 0), median(latency), percentile(latency, 100),
		percentile(work, 0), median(work), percentile(work, 100), calibMS, steal)
	res.Attempted = ops
	res.Failed = failed + g.failures
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedRun is what a workload's traced() fills in.
type tracedRun struct {
	seed    uint64
	budget  time.Duration
	spans   *spanLog
	values  map[string]float64
	gates   *gates
	log     io.Writer
	ops     int
	failed  int
	gc0     gcReading
	gcOps   int
	gcDelta gcReading
	// dispatch0 is the sparse and total kernel-dispatch decisions counted
	// when the traced laps began.
	dispatch0 [2]float64
}

func (r *tracedRun) set(name string, v float64) { r.values[name] = v }

// lapsBegin and lapsEnd bracket the traced laps, so the GC metrics and
// the dispatch share are those of the workload's own laps and leave the
// gates, the warm-up lap and the probes out. The registry is armed for
// the whole traced run, so the dispatch counters are read at both ends.
func (r *tracedRun) lapsBegin() {
	r.dispatch0 = r.dispatchCounts()
	r.gc0 = readGC()
}

// dispatchCounts is the sparse and the total decisions so far; a registry
// that cannot be read fails the run.
func (r *tracedRun) dispatchCounts() [2]float64 {
	sparse, total, err := dispatchCounts()
	if err != nil {
		r.gates.failf("reading the dispatch counters: %v", err)
	}
	return [2]float64{sparse, total}
}

func (r *tracedRun) lapsEnd(ops int) {
	g := readGC()
	d := r.dispatchCounts()
	if total := d[1] - r.dispatch0[1]; total > 0 {
		r.set("compute.dispatch_sparse_share", (d[0]-r.dispatch0[0])/total)
	}
	r.gcOps += ops
	r.gcDelta.cycles += g.cycles - r.gc0.cycles
	r.gcDelta.gcCPU += g.gcCPU - r.gc0.gcCPU
	r.gcDelta.totalCPU += g.totalCPU - r.gc0.totalCPU
}

// measureTraced is the traced run: the same set-up, then the workload's
// traced laps and probes, bracketed by the host readings.
func measureTraced(w workload, seed uint64, budget time.Duration, spanPath string, log io.Writer) (*result, error) {
	r := &tracedRun{
		seed:   seed,
		budget: budget,
		spans:  newSpanLog(),
		values: make(map[string]float64),
		gates:  &gates{log: log},
		log:    log,
	}
	setProcs(w.procs())
	if _, err := w.setup(seed); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	host := beginHostReading()

	obsArm() // the dispatch counters only count while armed
	err := w.traced(r)
	obsDisarm()
	if err != nil {
		return nil, err
	}

	calibMS, steal := host.end()
	r.set("host.calib_ms", calibMS)
	r.set("host.steal_pct", steal)
	// Every workload's set-up renders evaluation digits.
	r.set("dataset.synth_gen_ms", medianTime(probeReps, func() {
		if _, gerr := evalDigits(pgdEvalN, seed); gerr != nil {
			err = gerr
		}
	}))
	if err != nil {
		return nil, err
	}
	if r.gcOps > 0 {
		r.set("runtime.gc_cycles_per_op", float64(r.gcDelta.cycles)/float64(r.gcOps))
	}
	if r.gcDelta.totalCPU > 0 {
		r.set("runtime.gc_cpu_share", r.gcDelta.gcCPU/r.gcDelta.totalCPU)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("runtime.peak_rss_mb", rss)
	if err := r.spans.writeJSONL(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.spans.printSelfTimes(log)
	res, err := newResult(perLayer, r.values, true)
	if err != nil {
		return nil, err
	}
	res.Attempted = max(r.ops, 1)
	res.Failed = r.failed + r.gates.failures
	res.Correct = res.Failed == 0
	return res, nil
}

func (res *result) writeLine(w io.Writer) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
