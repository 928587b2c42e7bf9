// Package obs is the stdlib-only observability layer shared by every
// malevade serving tier: a concurrency-safe metrics registry (counters,
// gauges and fixed-bucket histograms, settable or callback-backed) with
// Prometheus text-format exposition, HTTP middleware recording
// per-endpoint request counts, in-flight gauges, latency histograms and
// per-request IDs (http.go), structured-logging construction over
// log/slog (log.go), an exposition-format and naming-convention linter
// shared with tools/metriclint (lint.go), and the optional pprof debug
// handler (debug.go).
//
// The registry speaks the Prometheus text exposition format (version
// 0.0.4) without importing any client library — the repository is
// stdlib-only by constraint, and the daemons need exactly counters,
// gauges and histograms. Families are get-or-create by name (a second
// request for the same name returns the same family, so many scoring
// engines can share one cumulative histogram), metric reads are lock-free
// atomics, and scrapes render families and series in sorted order so
// consecutive scrapes are textually comparable.
//
// Naming conventions are enforced at registration time, not scrape time:
// counter families must end in _total, nothing else may, and histogram
// base names must leave the _bucket/_sum/_count suffixes free. A registry
// that builds is therefore lint-clean by construction; Lint guards the
// wire format end to end anyway.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Family types for the TYPE exposition line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// DefLatencyBuckets are the default request-latency histogram bounds,
// spanning 100µs to 10s — wide enough for a binary-frame scoring
// call on one end and a campaign submission on the other.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must not be negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is unusable;
// obtain gauges from a Registry.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value reads the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets. The zero
// value is unusable; obtain histograms from a Registry.
type Histogram struct {
	bounds  []float64      // upper bounds, strictly increasing; +Inf implicit
	counts  []atomic.Int64 // len(bounds)+1, last slot is the +Inf overflow
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= le
	h.counts[i].Add(1)
	addFloat(&h.sumBits, v)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// addFloat CAS-adds delta onto a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// series is one labeled instance within a family.
type series struct {
	labels []string // label values, parallel to family.labels
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric family: a fixed type, label names, and either
// stored series or a scrape-time callback.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.RWMutex
	series map[string]*series
	fn     func() float64            // callback families (labels empty)
	vecFn  func() map[string]float64 // callback families (one label)
}

const labelSep = "\x00"

// with returns (creating if needed) the series for the given label values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labels: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = &Histogram{
			bounds: f.buckets,
			counts: make([]atomic.Int64, len(f.buckets)+1),
		}
	}
	f.series[key] = s
	return s
}

// Registry is a concurrency-safe collection of metric families with
// Prometheus text exposition. Create with NewRegistry; every tier (daemon,
// gateway) owns one and serves it at GET /metrics.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family gets or creates the named family, verifying that a pre-existing
// family was registered with the same shape — a mismatch is a programming
// error and panics, exactly once, at wiring time.
func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	if !metricNameRe.MatchString(name) {
		panic("obs: invalid metric name " + name)
	}
	switch typ {
	case typeCounter:
		if !strings.HasSuffix(name, "_total") {
			panic("obs: counter " + name + " must end in _total")
		}
	case typeGauge, typeHistogram:
		for _, suffix := range []string{"_total", "_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				panic("obs: " + typ + " " + name + " must not end in " + suffix)
			}
		}
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) || l == "le" {
			panic("obs: invalid label name " + l + " on " + name)
		}
	}
	if typ == typeHistogram {
		if len(buckets) == 0 {
			panic("obs: histogram " + name + " needs buckets")
		}
		for i, b := range buckets {
			if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= buckets[i-1]) {
				panic("obs: histogram " + name + " buckets must be finite and strictly increasing")
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil {
		if f.typ != typ || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic("obs: metric " + name + " re-registered with a different shape")
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// Counter returns the named unlabeled counter, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, typeCounter, nil, nil).with(nil).c
}

// Gauge returns the named unlabeled gauge, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, typeGauge, nil, nil).with(nil).g
}

// Histogram returns the named unlabeled histogram, creating it if needed.
// buckets are the upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, typeHistogram, nil, buckets).with(nil).h
}

// CounterVec is a family of counters sharing one name, split by label
// values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it if
// needed.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).c }

// CounterVec returns the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, typeCounter, labels, nil)}
}

// GaugeVec is a family of gauges sharing one name, split by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it if needed.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.with(values).g }

// GaugeVec returns the named labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, typeGauge, labels, nil)}
}

// HistogramVec is a family of histograms sharing one name and bucket
// layout, split by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it if
// needed.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).h }

// HistogramVec returns the named labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, typeHistogram, labels, buckets)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotone counters another layer already maintains (engine
// batch totals, store byte counts). Re-registering replaces the callback
// (a hot-swapped layer re-points its metric).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeCounter, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterVecFunc registers a one-label counter family whose series are
// read from fn at scrape time (e.g. per-model request counts the registry
// already tracks). Re-registering replaces the callback.
func (r *Registry) CounterVecFunc(name, help, label string, fn func() map[string]float64) {
	f := r.family(name, help, typeCounter, []string{label}, nil)
	f.mu.Lock()
	f.vecFn = fn
	f.mu.Unlock()
}

// GaugeVecFunc registers a one-label gauge family whose series are read
// from fn at scrape time. Re-registering replaces the callback.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	f := r.family(name, help, typeGauge, []string{label}, nil)
	f.mu.Lock()
	f.vecFn = fn
	f.mu.Unlock()
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4), families and series sorted by name so scrapes are
// deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.RUnlock()
	var buf strings.Builder
	for _, f := range fams {
		f.render(&buf)
	}
	_, err := io.WriteString(w, buf.String())
	return err
}

// render writes one family's HELP/TYPE header and every series.
func (f *family) render(buf *strings.Builder) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	fmt.Fprintf(buf, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(buf, "# TYPE %s %s\n", f.name, f.typ)
	if f.fn != nil {
		fmt.Fprintf(buf, "%s %s\n", f.name, formatValue(f.fn()))
		return
	}
	if f.vecFn != nil {
		vals := f.vecFn()
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(buf, "%s%s %s\n", f.name,
				renderLabels(f.labels, []string{k}, "", 0), formatValue(vals[k]))
		}
		return
	}
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := f.series[k]
		switch f.typ {
		case typeCounter:
			fmt.Fprintf(buf, "%s%s %d\n", f.name,
				renderLabels(f.labels, s.labels, "", 0), s.c.Value())
		case typeGauge:
			fmt.Fprintf(buf, "%s%s %s\n", f.name,
				renderLabels(f.labels, s.labels, "", 0), formatValue(s.g.Value()))
		case typeHistogram:
			var cum int64
			for i, bound := range s.h.bounds {
				cum += s.h.counts[i].Load()
				fmt.Fprintf(buf, "%s_bucket%s %d\n", f.name,
					renderLabels(f.labels, s.labels, "le", bound), cum)
			}
			cum += s.h.counts[len(s.h.bounds)].Load()
			fmt.Fprintf(buf, "%s_bucket%s %d\n", f.name,
				renderLabels(f.labels, s.labels, "le", math.Inf(1)), cum)
			fmt.Fprintf(buf, "%s_sum%s %s\n", f.name,
				renderLabels(f.labels, s.labels, "", 0), formatValue(s.h.Sum()))
			fmt.Fprintf(buf, "%s_count%s %d\n", f.name,
				renderLabels(f.labels, s.labels, "", 0), cum)
		}
	}
}

// renderLabels renders a {name="value",...} block, appending the special
// "le" histogram label when leName is non-empty. Empty label sets render
// as nothing.
func renderLabels(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatValue(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatValue renders a sample value: integral floats as integers (the
// common case for counters and counts), +Inf as Prometheus spells it,
// everything else shortest-round-trip.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ContentType is the Prometheus text exposition content type /metrics
// responds with.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_ = r.WriteText(w)
	})
}
