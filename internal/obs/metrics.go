// Package obs is the repository's observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms, and
// counters and gauges read from a func at scrape time) with Prometheus
// text-format and JSON export, a bounded packet-span tracer with Chrome
// trace_event export (loadable in Perfetto or chrome://tracing), and a
// bottleneck attribution report that ranks which hardware component
// saturates first — cross-checking the analytical model's Equation 4
// constraints against simulator-measured utilization.
//
// The package deliberately imports nothing from the rest of the
// repository, so the simulator, the experiments sweep engine, the report
// renderer and the CLIs can all register into one registry without import
// cycles. All types are safe for concurrent use: a parallel sweep's
// replications share one Registry and one Tracer.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Labels attaches dimension values to one metric series ("vertex" →
// "md5"). Series of one family differ only by label values.
type Labels map[string]string

// MetricType distinguishes the metric families.
type MetricType int

// Metric families.
const (
	// TypeCounter is a monotonically increasing value.
	TypeCounter MetricType = iota
	// TypeGauge is a value that can go up and down.
	TypeGauge
	// TypeHistogram is a fixed-bucket distribution.
	TypeHistogram
)

// String names the metric type in Prometheus TYPE-line vocabulary.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metrictype(%d)", int(t))
	}
}

// family is one named metric with all its labeled series.
type family struct {
	name    string
	help    string
	typ     MetricType
	buckets []float64 // histogram upper bounds, ascending
	series  map[string]*series
}

// series is one (family, label set) time series.
type series struct {
	mu     sync.Mutex
	labels Labels
	key    string
	fn     func() float64 // a func series' value, read at Gather
	value  float64        // counter/gauge
	counts []uint64       // histogram per-bucket counts (cumulative on export)
	sum    float64        // histogram sum
	count  uint64         // histogram observation count
	bounds []float64      // histogram bounds (shared with family)
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// validName matches the Prometheus metric-name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelKey renders a label set canonically (sorted by name) so equal sets
// map to one series.
func labelKey(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	names := make([]string, 0, len(l))
	for k := range l {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// getSeries finds or creates the series for (name, labels) with the given
// type. Registration is get-or-create so callers that attach repeatedly
// (each simulator replication of a sweep) share one series. Mismatched
// re-registration (same name, different type or buckets) panics: it is a
// programming error that would corrupt the exposition.
func (r *Registry) getSeries(name, help string, typ MetricType, buckets []float64, labels Labels) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for k := range labels {
		if !validName(k) || strings.Contains(k, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", k, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: map[string]*series{}}
		r.families[name] = f
	} else if f.typ != typ || !slices.Equal(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, typ, f.typ))
	}
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		cp := Labels{}
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{labels: cp, key: key, bounds: f.buckets}
		if typ == TypeHistogram {
			s.counts = make([]uint64, len(f.buckets))
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Counter finds or creates a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return &Counter{r.getSeries(name, help, TypeCounter, nil, labels)}
}

// Add increases the counter; negative deltas are ignored (counters only
// go up).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	c.s.mu.Lock()
	c.s.value += v
	c.s.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current total.
func (c *Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.value
}

// CounterFunc registers a counter series whose value is read from fn at
// every Gather: for a total the owner already keeps, so it is counted
// once and never pushed. fn must not decrease. Gather calls fn outside
// every registry and series lock, so fn may take a lock its owner holds
// while it updates other series. Registering again for the same name
// and labels replaces the func.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.getSeries(name, help, TypeCounter, nil, labels).setFunc(fn)
}

// GaugeFunc is CounterFunc for a gauge: a series whose value is read
// from fn when it is gathered, with the same locking rule.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.getSeries(name, help, TypeGauge, nil, labels).setFunc(fn)
}

func (s *series) setFunc(fn func() float64) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

// Gauge is a metric that can rise and fall.
type Gauge struct{ s *series }

// Gauge finds or creates a gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return &Gauge{r.getSeries(name, help, TypeGauge, nil, labels)}
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.value = v
	g.s.mu.Unlock()
}

// Add moves the value by a delta.
func (g *Gauge) Add(v float64) {
	g.s.mu.Lock()
	g.s.value += v
	g.s.mu.Unlock()
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.value
}

// Histogram is a fixed-bucket distribution.
type Histogram struct{ s *series }

// Histogram finds or creates a histogram series with the given ascending
// bucket upper bounds (the +Inf bucket is implicit). Bounds must be
// strictly increasing and non-empty.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	return &Histogram{r.getSeries(name, help, TypeHistogram, append([]float64(nil), buckets...), labels)}
}

// ExpBuckets returns n bounds growing geometrically from start by factor —
// the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start>0, factor>1, n>=1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.s.mu.Lock()
	// Per-bucket (non-cumulative) counts internally; export accumulates.
	i := sort.SearchFloat64s(h.s.bounds, v)
	if i < len(h.s.counts) {
		h.s.counts[i]++
	}
	h.s.count++
	h.s.sum += v
	h.s.mu.Unlock()
}

// Count is the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.count
}

// Sum is the total of all observations so far.
func (h *Histogram) Sum() float64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.sum
}

// Snapshot is one exported series.
type Snapshot struct {
	// Name is the family name.
	Name string `json:"name"`
	// Type is "counter", "gauge" or "histogram".
	Type string `json:"type"`
	// Help is the family description.
	Help string `json:"help,omitempty"`
	// Labels are the series dimensions.
	Labels Labels `json:"labels,omitempty"`
	// Value holds a counter/gauge reading.
	Value float64 `json:"value"`
	// Sum/Count/Buckets describe a histogram; Buckets maps upper bound to
	// cumulative count.
	Sum     float64          `json:"sum,omitempty"`
	Count   uint64           `json:"count,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	// UpperBound is the bucket's inclusive upper bound ("le").
	UpperBound float64 `json:"le"`
	// CumulativeCount counts observations at or below the bound.
	CumulativeCount uint64 `json:"count"`
}

// Gather snapshots every series, sorted by family name then label key, so
// output is deterministic. A func series' value is read by calling its
// func with no registry or series lock held.
func (r *Registry) Gather() []Snapshot {
	// family.series maps are only mutated by getSeries under r.mu, so the
	// series pointers must be copied out under the same lock: a live
	// /metrics scrape racing a sweep's series registration would otherwise
	// read the maps while they grow.
	type famSnap struct {
		f      *family
		series []*series
	}
	r.mu.Lock()
	fams := make([]famSnap, 0, len(r.families))
	for _, f := range r.families {
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		fams = append(fams, famSnap{f: f, series: ss})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].f.name < fams[j].f.name })
	var out []Snapshot
	for _, fs := range fams {
		f := fs.f
		sort.Slice(fs.series, func(i, j int) bool { return fs.series[i].key < fs.series[j].key })
		for _, s := range fs.series {
			s.mu.Lock()
			fn := s.fn
			snap := Snapshot{Name: f.name, Type: f.typ.String(), Help: f.help, Labels: s.labels}
			if f.typ == TypeHistogram {
				snap.Sum = s.sum
				snap.Count = s.count
				var cum uint64
				for i, b := range f.buckets {
					cum += s.counts[i]
					snap.Buckets = append(snap.Buckets, BucketSnapshot{UpperBound: b, CumulativeCount: cum})
				}
			} else {
				snap.Value = s.value
			}
			s.mu.Unlock()
			if fn != nil {
				snap.Value = fn()
			}
			out = append(out, snap)
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE lines per family, one sample
// line per series, histograms expanded into _bucket/_sum/_count with a
// trailing +Inf bucket.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Gather()
	var last string
	for _, s := range snaps {
		if s.Name != last {
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, escapeHelp(s.Help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Type); err != nil {
				return err
			}
			last = s.Name
		}
		switch s.Type {
		case "histogram":
			for _, b := range s.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					s.Name, promLabels(s.Labels, "le", formatFloat(b.UpperBound)), b.CumulativeCount); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, promLabels(s.Labels, "le", "+Inf"), s.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, promLabels(s.Labels, "", ""), formatFloat(s.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, promLabels(s.Labels, "", ""), s.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, promLabels(s.Labels, "", ""), formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the registry as a JSON array of series snapshots.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Gather())
}

// ServeHTTP exposes the registry as a Prometheus scrape endpoint; mount it
// at /metrics. Appending ?format=json switches to the JSON export.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// promLabels renders a label set, optionally with one extra pair (the
// histogram "le" bound), as {k="v",...} or "" when empty.
func promLabels(l Labels, extraKey, extraVal string) string {
	names := make([]string, 0, len(l))
	for k := range l {
		names = append(names, k)
	}
	sort.Strings(names)
	var parts []string
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s=%q", k, escapeLabel(l[k])))
	}
	if extraKey != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", extraKey, extraVal))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a value the way Prometheus expects: shortest
// round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	// %q already escapes backslash, quote and newline; the label value is
	// passed through fmt.Sprintf("%q") by the caller, so nothing to do —
	// kept as a seam for future non-%q rendering.
	return s
}
