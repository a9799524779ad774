// Package obs is the zero-dependency observability layer for the
// speculative-service stack: a metrics registry (atomic counters, gauges,
// and fixed-bucket histograms rendered in the Prometheus text exposition
// format), structured component-tagged logging over log/slog, and
// lightweight span tracing with a bounded in-memory ring of recent spans.
//
// The paper's entire evaluation is a set of measured ratios — bandwidth,
// server load, service time and byte miss rate, speculative over
// non-speculative (§3, Figs. 5–6) — and this package is what lets a
// running server report those quantities continuously instead of only at
// the end of a batch simulation.
//
// Everything here is safe for concurrent use. Metric mutation paths are
// lock-free (a single atomic add per counter or histogram observation);
// registration and rendering take a registry lock.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry: the one cmd binaries expose on
// /metrics. Components accept an explicit *Registry and fall back to
// Default when given nil, so tests can isolate themselves with
// NewRegistry.
var Default = NewRegistry()

// Labels are constant labels attached to one metric series. The same
// metric name with different label sets forms one family with several
// series, exactly as Prometheus models it.
type Labels map[string]string

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float-valued metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; delta may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: bounds are the inclusive upper
// edges (the Prometheus "le" convention), with an implicit +Inf bucket at
// the end. Observations are a binary search plus one atomic add, so hot
// paths can record every request.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64

	// exemplars holds, per bucket, the most recent trace exemplar observed
	// into it (set by ObserveSpan / ObserveTrace).
	exemplars []exemplar
}

// exemplar ties one observed value to the trace that produced it, in the
// OpenMetrics sense: a concrete request a human can pull up in
// /debug/spans?trace=… to explain a bucket. It is a slot, written in
// place: an observer that finds it busy leaves it to whoever holds it
// (that one is as recent), so recording an exemplar never waits and never
// allocates.
type exemplar struct {
	mu    sync.Mutex
	trace traceID // zero: no exemplar yet
	value float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.observe(v, traceID{}) }

// ObserveSpan records one value and makes the span's trace the bucket's
// exemplar (last writer wins). A nil span degrades to a plain Observe.
func (h *Histogram) ObserveSpan(v float64, sp *ActiveSpan) {
	if sp == nil {
		h.Observe(v)
		return
	}
	h.observe(v, sp.rec.trace)
}

// ObserveTrace is ObserveSpan for a caller holding the trace ID as 32 hex
// digits; anything else degrades to a plain Observe.
func (h *Histogram) ObserveTrace(v float64, traceID string) {
	id, _ := parseTraceID(traceID)
	h.observe(v, id)
}

func (h *Histogram) observe(v float64, trace traceID) {
	i := sort.SearchFloat64s(h.bounds, v)
	if e := &h.exemplars[i]; !trace.isZero() && e.mu.TryLock() {
		e.trace, e.value = trace, v
		e.mu.Unlock()
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// exemplarAt reads bucket i's exemplar; a zero trace means none.
func (h *Histogram) exemplarAt(i int) (traceID, float64) {
	e := &h.exemplars[i]
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.trace, e.value
}

// Exemplar returns the trace ID last attached to the bucket containing v
// ("" if none).
func (h *Histogram) Exemplar(v float64) string {
	trace, _ := h.exemplarAt(sort.SearchFloat64s(h.bounds, v))
	return trace.String()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear interpolation
// inside the bucket containing it. Observations in the +Inf bucket report
// the largest finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	lower := 0.0
	for i, b := range h.bounds {
		n := h.counts[i].Load()
		if float64(cum+n) >= rank && n > 0 {
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(b-lower)
		}
		cum += n
		lower = b
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets are upper bounds in seconds suited to an in-memory
// document server: 100µs up to 10s.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// SizeBuckets are upper bounds in bytes for document/response sizes,
// ×4 per step from 256 B to 16 MiB.
func SizeBuckets() []float64 {
	return []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family groups the series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	series  map[string]any // label signature → *Counter | *Gauge | *Histogram
}

// Registry holds metric families and renders them. Lookup is
// get-or-create: asking twice for the same name and labels returns the
// same metric, so independently constructed components may share series.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// orDefault resolves nil to the process-wide Default registry.
func orDefault(r *Registry) *Registry {
	if r == nil {
		return Default
	}
	return r
}

func (r *Registry) family(name, help string, kind metricKind, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter for name+labels, creating it if needed.
// labels may be nil.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r = orDefault(r)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter, nil)
	sig := labelSignature(labels)
	if m, ok := f.series[sig]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[sig] = c
	return c
}

// Gauge returns the gauge for name+labels, creating it if needed.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r = orDefault(r)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge, nil)
	sig := labelSignature(labels)
	if m, ok := f.series[sig]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[sig] = g
	return g
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket bounds if needed (bounds must be sorted ascending; an
// existing family keeps its original bounds).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	r = orDefault(r)
	if len(buckets) == 0 {
		buckets = LatencyBuckets()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram, buckets)
	sig := labelSignature(labels)
	if m, ok := f.series[sig]; ok {
		return m.(*Histogram)
	}
	h := &Histogram{
		bounds:    f.buckets,
		counts:    make([]atomic.Int64, len(f.buckets)+1),
		exemplars: make([]exemplar, len(f.buckets)+1),
	}
	f.series[sig] = h
	return h
}

// labelSignature renders labels in canonical `k="v",…` order; empty for
// nil labels.
func labelSignature(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// seriesName joins a family name with a label signature.
func seriesName(name, sig string) string {
	if sig == "" {
		return name
	}
	return name + "{" + sig + "}"
}

// withLe appends (or starts) a label signature with an le bucket label.
func withLe(sig, le string) string {
	if sig == "" {
		return `le="` + le + `"`
	}
	return sig + `,le="` + le + `"`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format
// (families and series in lexical order, so output is deterministic).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r = orDefault(r)
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		sigs := make([]string, 0, len(f.series))
		for s := range f.series {
			sigs = append(sigs, s)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			switch m := f.series[sig].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, sig), m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, sig), formatFloat(m.Value()))
			case *Histogram:
				var cum int64
				for i, bound := range m.bounds {
					cum += m.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket{%s} %d%s\n", f.name,
						withLe(sig, formatFloat(bound)), cum, m.exemplarSuffix(i))
				}
				cum += m.counts[len(m.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket{%s} %d%s\n", f.name,
					withLe(sig, "+Inf"), cum, m.exemplarSuffix(len(m.bounds)))
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, braced(sig), formatFloat(m.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, braced(sig), m.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// exemplarSuffix renders the bucket's OpenMetrics-style exemplar
// (` # {trace_id="…"} value`), or "" when the bucket has none.
func (h *Histogram) exemplarSuffix(i int) string {
	trace, value := h.exemplarAt(i)
	if trace.isZero() {
		return ""
	}
	return ` # {trace_id="` + trace.String() + `"} ` + formatFloat(value)
}

func braced(sig string) string {
	if sig == "" {
		return ""
	}
	return "{" + sig + "}"
}

// Handler serves the registry in Prometheus text format — mount it at
// /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
