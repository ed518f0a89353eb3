package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is an ordered collection of named metric families. One
// default registry serves the whole process (Default); tests build
// their own with NewRegistry. Registration panics on an invalid or
// duplicate name — instruments are configuration, declared once at
// package init, and a silently dropped metric would hide the mistake.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every package-level
// instrument registers into.
func Default() *Registry { return defaultRegistry }

// metric is one registered family: its metadata plus its exposition
// sample lines.
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string
	writeSamples(w *strings.Builder)
}

func (r *Registry) register(m metric) {
	name := m.metricName()
	if err := checkMetricName(name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// snapshot returns the registered families in registration order.
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.metrics...)
}

func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("bad metric name %q", name)
		}
	}
	return nil
}

func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("bad label name %q", name)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use; writes are dropped while the layer is disarmed.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter registers a counter in the default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// NewCounter registers a counter in r.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() {
	if armed.Load() {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if armed.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) writeSamples(w *strings.Builder) {
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a value that can go up and down (queue depth, sessions,
// heartbeat age). The value is a float64 held in atomic bits.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// NewGauge registers a gauge in the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// NewGauge registers a gauge in r.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if armed.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (negative to decrement).
func (g *Gauge) Add(d float64) {
	if !armed.Load() {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) writeSamples(w *strings.Builder) {
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram counts observations into fixed buckets (ascending upper
// bounds; an implicit +Inf bucket catches the rest) and tracks their
// count and sum. Buckets are cumulative in the exposition, matching
// Prometheus histogram semantics.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count      atomic.Uint64
	sumBits    atomic.Uint64
}

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds)
}

// NewHistogram registers a histogram in r. bounds must be non-empty,
// finite and strictly ascending.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram %q bound %v is not finite", name, b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending at %v", name, b))
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one value. A value equal to a bound lands in that
// bound's bucket (le semantics).
func (h *Histogram) Observe(v float64) {
	if !armed.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) writeSamples(w *strings.Builder) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.count.Load())
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
}

// ExpBuckets returns n strictly ascending bounds starting at start and
// growing by factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ---------------------------------------------------------------------------
// Labeled vectors

// vec is the shared child table behind CounterVec and GaugeVec: one
// instrument per label-value combination, created on first use.
type vec struct {
	name, help string
	labels     []string
	mu         sync.RWMutex
	children   map[string]metric // key: label values joined by \x00
}

func newVec(name, help string, labels []string) *vec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vector %q needs at least one label", name))
	}
	for _, l := range labels {
		if err := checkLabelName(l); err != nil {
			panic(fmt.Sprintf("obs: metric %q: %v", name, err))
		}
	}
	return &vec{name: name, help: help, labels: labels, children: make(map[string]metric)}
}

// child returns the existing child for the label values or creates one
// with mk. The number of values must match the label names.
func (v *vec) child(values []string, mk func(series string) metric) metric {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric %q got %d label values for %d labels", v.name, len(values), len(v.labels)))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	m := v.children[key]
	v.mu.RUnlock()
	if m != nil {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m := v.children[key]; m != nil {
		return m
	}
	var sb strings.Builder
	sb.WriteString(v.name)
	sb.WriteByte('{')
	for i, l := range v.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=\"%s\"", l, escapeLabelValue(values[i]))
	}
	sb.WriteByte('}')
	m = mk(sb.String())
	v.children[key] = m
	return m
}

// sortedChildren returns the children in a stable (series-name) order.
func (v *vec) sortedChildren() []metric {
	v.mu.RLock()
	out := make([]metric, 0, len(v.children))
	for _, m := range v.children {
		out = append(out, m)
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].metricName() < out[j].metricName() })
	return out
}

func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// CounterVec is a counter family keyed by label values — e.g. requests
// per model fingerprint and outcome.
type CounterVec struct{ *vec }

// NewCounterVec registers a labeled counter family in the default
// registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return defaultRegistry.NewCounterVec(name, help, labels...)
}

// NewCounterVec registers a labeled counter family in r.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{vec: newVec(name, help, labels)}
	r.register(cv)
	return cv
}

// With returns the counter for the given label values, creating it on
// first use. Children are cached; callers on hot paths should resolve
// once and keep the *Counter.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.child(values, func(series string) metric {
		return &Counter{name: series, help: cv.help}
	}).(*Counter)
}

func (cv *CounterVec) metricName() string { return cv.name }
func (cv *CounterVec) metricHelp() string { return cv.help }
func (cv *CounterVec) metricType() string { return "counter" }
func (cv *CounterVec) writeSamples(w *strings.Builder) {
	for _, m := range cv.sortedChildren() {
		m.writeSamples(w)
	}
}

// GaugeVec is a gauge family keyed by label values — e.g. in-flight
// points per shard.
type GaugeVec struct{ *vec }

// NewGaugeVec registers a labeled gauge family in the default registry.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return defaultRegistry.NewGaugeVec(name, help, labels...)
}

// NewGaugeVec registers a labeled gauge family in r.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	gv := &GaugeVec{vec: newVec(name, help, labels)}
	r.register(gv)
	return gv
}

// With returns the gauge for the given label values, creating it on
// first use.
func (gv *GaugeVec) With(values ...string) *Gauge {
	return gv.child(values, func(series string) metric {
		return &Gauge{name: series, help: gv.help}
	}).(*Gauge)
}

func (gv *GaugeVec) metricName() string { return gv.name }
func (gv *GaugeVec) metricHelp() string { return gv.help }
func (gv *GaugeVec) metricType() string { return "gauge" }
func (gv *GaugeVec) writeSamples(w *strings.Builder) {
	for _, m := range gv.sortedChildren() {
		m.writeSamples(w)
	}
}

// ---------------------------------------------------------------------------
// Info

// InfoFunc is a constant-1 gauge whose labels are resolved at
// exposition time — the build_info idiom, where the version label may
// be set after the metric is registered.
type InfoFunc struct {
	name, help string
	labels     func() map[string]string
}

// NewInfoFunc registers an info metric in the default registry.
func NewInfoFunc(name, help string, labels func() map[string]string) *InfoFunc {
	return defaultRegistry.NewInfoFunc(name, help, labels)
}

// NewInfoFunc registers an info metric in r.
func (r *Registry) NewInfoFunc(name, help string, labels func() map[string]string) *InfoFunc {
	if labels == nil {
		panic("obs: nil InfoFunc labels callback")
	}
	m := &InfoFunc{name: name, help: help, labels: labels}
	r.register(m)
	return m
}

func (m *InfoFunc) metricName() string { return m.name }
func (m *InfoFunc) metricHelp() string { return m.help }
func (m *InfoFunc) metricType() string { return "gauge" }
func (m *InfoFunc) writeSamples(w *strings.Builder) {
	ls := m.labels()
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.WriteString(m.name)
	w.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%s=\"%s\"", k, escapeLabelValue(ls[k]))
	}
	w.WriteString("} 1\n")
}
