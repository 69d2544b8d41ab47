// Package telemetry is a dependency-free observability layer for the
// collection infrastructure: monotonic counters, gauges, and fixed-bucket
// histograms held in a registry, with atomics on the hot path and
// Prometheus-text-format snapshotting for scraping; plus lightweight
// timing spans (span.go) and a health endpoint (health.go).
//
// Metric names follow Prometheus conventions and may carry a constant
// label set inline:
//
//	reg.Counter("collect_reports_accepted_total").Inc()
//	reg.Counter(`collect_reports_rejected_total{reason="decode"}`).Inc()
//	reg.Histogram("collect_decode_seconds", telemetry.DefBuckets).Observe(dt)
//
// Lookups take the registry mutex; hot loops should fetch the metric once
// and hold the pointer. All metric operations themselves are lock-free.
package telemetry

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

// DefBuckets are the default latency buckets, in seconds. They span
// 10µs..10s, which covers report decode/fold, HTTP submit round-trips,
// and whole interpreter runs.
var DefBuckets = []float64{1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// StepBuckets are buckets for interpreter step/fuel counts.
var StepBuckets = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// SizeBuckets are buckets for byte sizes (report payloads).
var SizeBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 1 << 20}

// NonzeroBuckets are buckets for nonzero counters per report — the
// quantity the sparse decode→fold→analysis path scales with (dense
// vectors cost O(counters) regardless of what the run touched).
var NonzeroBuckets = []float64{0, 8, 32, 128, 512, 2048, 8192, 32768, 131072}

// FineBuckets are sub-millisecond latency buckets, in seconds, for hot
// handlers that answer in microseconds (the collector's staged ingest
// path enqueues and returns without folding) — DefBuckets' first bound
// would lump every such request into one bucket.
var FineBuckets = []float64{1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2, 0.1, 0.5}

// ----------------------------------------------------------------------------
// Metric kinds

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (compare-and-swap loop; safe for concurrent use).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with inclusive upper bounds, in
// the Prometheus style (cumulative buckets plus a +Inf overflow, a sum,
// and a count).
type Histogram struct {
	upper   []float64 // sorted upper bounds, excluding +Inf
	buckets []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets not strictly increasing: %v", upper))
		}
	}
	return &Histogram{
		upper:   append([]float64(nil), upper...),
		buckets: make([]atomic.Uint64, len(upper)),
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v: inclusive upper bound
	if i < len(h.buckets) {
		h.buckets[i].Add(1)
	} else {
		h.inf.Add(1)
	}
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

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// CumulativeCounts returns the cumulative per-bucket counts, one per
// upper bound plus a final +Inf entry.
func (h *Histogram) CumulativeCounts() []uint64 {
	out := make([]uint64, len(h.upper)+1)
	var acc uint64
	for i := range h.buckets {
		acc += h.buckets[i].Load()
		out[i] = acc
	}
	out[len(h.upper)] = acc + h.inf.Load()
	return out
}

// Quantile returns the upper bound of the bucket holding rank
// ceil(q·count), so the true q-quantile lies within that one bucket.
// A rank in the +Inf overflow returns the largest finite bound, a floor
// (the convention of Prometheus's histogram_quantile); an empty
// histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	cum := h.CumulativeCounts()
	total := cum[len(h.upper)]
	if total == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(total))), 1), total)
	for i, c := range cum[:len(h.upper)] {
		if c >= rank {
			return h.upper[i]
		}
	}
	if len(h.upper) == 0 {
		return math.Inf(1)
	}
	return h.upper[len(h.upper)-1]
}

// ----------------------------------------------------------------------------
// Registry

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
	default:
		return "histogram"
	}
}

type metricEntry struct {
	family string // name without the label set
	labels string // `k="v",...` without braces; empty if unlabeled
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics and span statistics. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	metrics  map[string]*metricEntry // full name -> entry
	families map[string]metricKind   // family name -> kind, for TYPE consistency
	spans    map[string]*SpanStat
	spanSeq  []string // span names in first-start order
}

// NewRegistry creates a registry holding only the standard
// cbi_build_info gauge (see buildinfo.go).
func NewRegistry() *Registry {
	r := &Registry{
		metrics:  make(map[string]*metricEntry),
		families: make(map[string]metricKind),
		spans:    make(map[string]*SpanStat),
	}
	r.registerBuildInfo()
	return r
}

// Default is the process-wide registry used by the package-level helpers.
var Default = NewRegistry()

// C returns (creating if needed) a counter in the default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns (creating if needed) a gauge in the default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns (creating if needed) a histogram in the default registry.
func H(name string, buckets []float64) *Histogram { return Default.Histogram(name, buckets) }

// splitName separates `family{k="v"}` into family and the label body.
// It panics on malformed names: metric names are compile-time constants,
// so a bad one is a programming error.
func splitName(name string) (family, labels string) {
	family = name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			panic("telemetry: malformed metric name " + strconv.Quote(name))
		}
		family, labels = name[:i], name[i+1:len(name)-1]
		if labels == "" {
			panic("telemetry: empty label set in " + strconv.Quote(name))
		}
	}
	if !validFamily(family) {
		panic("telemetry: invalid metric name " + strconv.Quote(family))
	}
	return family, labels
}

// EscapeLabelValue escapes a label value for the Prometheus text
// exposition format: backslash, double quote, and newline become \\, \"
// and \n. Metric names composed with Labels carry already-escaped
// bodies, so WritePrometheus can emit them verbatim.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Labels renders alternating key/value pairs as an inline label block
// `{k1="v1",k2="v2"}`, escaping each value per the exposition format. Use
// it to compose metric names whose label values are not compile-time
// constants:
//
//	reg.Counter("collect_http_requests_total" + telemetry.Labels("endpoint", path, "code", code))
//
// It panics on an odd number of arguments or an invalid key — label
// layouts, unlike values, are programming constants.
func Labels(kv ...string) string {
	if len(kv) == 0 || len(kv)%2 != 0 {
		panic("telemetry: Labels needs alternating key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if !validFamily(kv[i]) {
			panic("telemetry: invalid label key " + strconv.Quote(kv[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func validFamily(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) entry(name string, kind metricKind, buckets []float64) *metricEntry {
	family, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	if k, ok := r.families[family]; ok && k != kind {
		panic(fmt.Sprintf("telemetry: family %s registered as %s, requested as %s", family, k, kind))
	}
	e := &metricEntry{family: family, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = newHistogram(buckets)
	}
	r.metrics[name] = e
	r.families[family] = kind
	return e
}

// Counter returns the named counter, creating it at zero if needed.
func (r *Registry) Counter(name string) *Counter {
	return r.entry(name, kindCounter, nil).c
}

// Gauge returns the named gauge, creating it at zero if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return r.entry(name, kindGauge, nil).g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds if needed. The buckets of an existing histogram
// are not changed.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	return r.entry(name, kindHistogram, buckets).h
}

// ----------------------------------------------------------------------------
// Prometheus text exposition

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func labelJoin(existing, extra string) string {
	if existing == "" {
		return extra
	}
	if extra == "" {
		return existing
	}
	return existing + "," + extra
}

// WritePrometheus writes a snapshot of every metric in the Prometheus
// text exposition format (version 0.0.4), families sorted by name and
// labeled children sorted within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	entries := make(map[string]*metricEntry, len(r.metrics))
	for name, e := range r.metrics {
		entries[name] = e
	}
	r.mu.Unlock()

	sort.Slice(names, func(i, j int) bool {
		a, b := entries[names[i]], entries[names[j]]
		if a.family != b.family {
			return a.family < b.family
		}
		return a.labels < b.labels
	})

	var b strings.Builder
	lastFamily := ""
	for _, name := range names {
		e := entries[name]
		if e.family != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.family, e.kind)
			lastFamily = e.family
		}
		switch e.kind {
		case kindCounter:
			writeSample(&b, e.family, e.labels, strconv.FormatUint(e.c.Value(), 10))
		case kindGauge:
			writeSample(&b, e.family, e.labels, formatFloat(e.g.Value()))
		case kindHistogram:
			cum := e.h.CumulativeCounts()
			for i, ub := range e.h.upper {
				le := fmt.Sprintf("le=%q", formatFloat(ub))
				writeSample(&b, e.family+"_bucket", labelJoin(e.labels, le), strconv.FormatUint(cum[i], 10))
			}
			writeSample(&b, e.family+"_bucket", labelJoin(e.labels, `le="+Inf"`), strconv.FormatUint(cum[len(cum)-1], 10))
			writeSample(&b, e.family+"_sum", e.labels, formatFloat(e.h.Sum()))
			writeSample(&b, e.family+"_count", e.labels, strconv.FormatUint(e.h.Count(), 10))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// Handler returns an http.Handler serving the exposition snapshot,
// suitable for mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
