package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("packets_total", "packets seen", Labels{"vertex": "md5"})
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	c.Add(math.NaN())
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	g := r.Gauge("queue_len", "waiting requests", nil)
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestGetOrCreateSharesSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "", Labels{"k": "v"})
	b := r.Counter("c_total", "", Labels{"k": "v"})
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Fatalf("same (name, labels) must share a series: %v %v", a.Value(), b.Value())
	}
	other := r.Counter("c_total", "", Labels{"k": "w"})
	if other.Value() != 0 {
		t.Fatal("distinct label values must not share a series")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must panic", bad)
				}
			}()
			r.Counter(bad, "", nil)
		}()
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "e2e latency", []float64{0.001, 0.01, 0.1}, nil)
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	snaps := r.Gather()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	s := snaps[0]
	wantCum := []uint64{1, 3, 4} // cumulative per bound; +Inf (=5) is implicit
	for i, b := range s.Buckets {
		if b.CumulativeCount != wantCum[i] {
			t.Errorf("bucket le=%v cum=%d, want %d", b.UpperBound, b.CumulativeCount, wantCum[i])
		}
	}
	if s.Sum != 0.0005+0.005+0.005+0.05+5 {
		t.Errorf("sum = %v", s.Sum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

// promLine matches one valid Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestPrometheusFormatLint renders a representative registry and checks
// every line against the exposition-format grammar: HELP/TYPE comments
// first per family, valid sample lines, histogram series complete with a
// +Inf bucket whose count equals _count.
func TestPrometheusFormatLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_packets_delivered_total", "packets delivered", nil).Add(42)
	r.Counter("sim_packets_dropped_total", `drops with "quotes" and \slash`, Labels{"vertex": `v"1\x`}).Inc()
	r.Gauge("sim_link_utilization", "busy fraction", Labels{"link": "interface"}).Set(0.73)
	h := r.Histogram("sweep_point_seconds", "per-point wall time", ExpBuckets(0.001, 10, 4), Labels{"fig": "fig9"})
	h.Observe(0.02)
	h.Observe(3)
	h.Observe(1e9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	seenType := map[string]string{}
	var lastFamily string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# HELP ") {
			parts := strings.SplitN(ln, " ", 4)
			if len(parts) < 3 {
				t.Fatalf("malformed HELP line: %q", ln)
			}
			lastFamily = parts[2]
			continue
		}
		if strings.HasPrefix(ln, "# TYPE ") {
			parts := strings.SplitN(ln, " ", 4)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", ln)
			}
			name, typ := parts[2], parts[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("invalid TYPE %q in %q", typ, ln)
			}
			if _, dup := seenType[name]; dup {
				t.Fatalf("duplicate TYPE line for %s", name)
			}
			seenType[name] = typ
			lastFamily = name
			continue
		}
		if strings.HasPrefix(ln, "#") {
			t.Fatalf("unexpected comment line %q", ln)
		}
		if !promLine.MatchString(ln) {
			t.Fatalf("sample line fails format lint: %q", ln)
		}
		name := ln[:strings.IndexAny(ln, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := seenType[name]; !ok {
			if _, ok := seenType[base]; !ok {
				t.Fatalf("sample %q precedes its TYPE line (family %q)", ln, lastFamily)
			}
		}
	}
	// Histogram completeness: +Inf bucket count == _count value.
	if !strings.Contains(out, `sweep_point_seconds_bucket{fig="fig9",le="+Inf"} 3`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `sweep_point_seconds_count{fig="fig9"} 3`) {
		t.Errorf("missing _count:\n%s", out)
	}
	if !strings.Contains(out, "sim_link_utilization{link=\"interface\"} 0.73") {
		t.Errorf("missing gauge sample:\n%s", out)
	}
}

func TestJSONExportRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help", Labels{"x": "1"}).Add(7)
	r.Histogram("h", "", []float64{1, 2}, nil).Observe(1.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snaps); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(snaps) != 2 || snaps[0].Name != "a_total" || snaps[0].Value != 7 {
		t.Fatalf("snapshots = %+v", snaps)
	}
	if snaps[1].Count != 1 || len(snaps[1].Buckets) != 2 {
		t.Fatalf("histogram snapshot = %+v", snaps[1])
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "", nil).Inc()
	srv := httptest.NewServer(r)
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var b strings.Builder
	if _, err := fmt.Fscan(res.Body, &b); err != nil {
		// Fscan stops at whitespace; just check content type and status.
		_ = err
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	resJSON, err := srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resJSON.Body.Close()
	if ct := resJSON.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type = %q", ct)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("races_total", "", nil)
			h := r.Histogram("rh", "", []float64{1}, nil)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 2))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("races_total", "", nil).Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
}

// TestGatherRacesRegistration scrapes the registry while other goroutines
// keep registering fresh series into existing families — the live
// /metrics-during-sweep pattern. Run under -race this is a regression
// test for Gather reading family.series maps without the registry lock.
func TestGatherRacesRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter("scrape_races_total", "", Labels{"vertex": "seed"})
	done := make(chan struct{})
	var registered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				r.Counter("scrape_races_total", "", Labels{"vertex": fmt.Sprintf("v%d_%d", w, i)}).Inc()
				r.Histogram("scrape_races_hist", "", []float64{1, 2}, Labels{"vertex": fmt.Sprintf("v%d_%d", w, i)}).Observe(1)
				registered.Add(1)
			}
		}(w)
	}
	// Scrape until the writers have demonstrably inserted series while
	// scrapes were in flight — just N iterations could finish before the
	// goroutines are even scheduled, missing the interleaving entirely.
	for registered.Load() < 5000 {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
	}
	close(done)
	wg.Wait()
	snaps := r.Gather()
	if len(snaps) == 0 {
		t.Fatal("no snapshots after concurrent registration")
	}
}

// Func series read their owner's state at every scrape and export like
// any counter or gauge, in both formats.
func TestFuncSeriesExport(t *testing.T) {
	r := NewRegistry()
	var served, depth atomic.Int64
	served.Store(3)
	r.CounterFunc("served_total", "requests served", Labels{"tenant": "a"},
		func() float64 { return float64(served.Load()) })
	r.CounterFunc("served_total", "requests served", Labels{"tenant": "b"},
		func() float64 { return 1 })
	r.GaugeFunc("queue_depth", "waiting requests", nil,
		func() float64 { return float64(depth.Load()) })
	prom := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if errs := LintExposition([]byte(b.String())); errs != nil {
			t.Fatalf("func series fail lint: %v\n%s", errs, b.String())
		}
		return b.String()
	}
	want := `# HELP queue_depth waiting requests
# TYPE queue_depth gauge
queue_depth 0
# HELP served_total requests served
# TYPE served_total counter
served_total{tenant="a"} 3
served_total{tenant="b"} 1
`
	if got := prom(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}

	// The next scrape sees the owner's new state; nothing was pushed.
	served.Add(4)
	depth.Store(2)
	if got := prom(); !strings.Contains(got, `served_total{tenant="a"} 7`) || !strings.Contains(got, "queue_depth 2") {
		t.Fatalf("scrape did not re-read the funcs:\n%s", got)
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snaps); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 ||
		snaps[0].Name != "queue_depth" || snaps[0].Type != "gauge" || snaps[0].Value != 2 ||
		snaps[1].Name != "served_total" || snaps[1].Type != "counter" || snaps[1].Labels["tenant"] != "a" || snaps[1].Value != 7 {
		t.Fatalf("JSON snapshots = %+v", snaps)
	}

	// Registering again replaces the func; a type clash still panics.
	r.GaugeFunc("queue_depth", "waiting requests", nil, func() float64 { return 9 })
	if got := prom(); !strings.Contains(got, "queue_depth 9") {
		t.Fatalf("re-registered func not used:\n%s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge func over a counter must panic")
		}
	}()
	r.GaugeFunc("served_total", "", nil, func() float64 { return 0 })
}

// A func may take a lock its owner holds while it updates other series
// or registers new ones. Gather calls funcs with no registry or series
// lock held, so scraping while the owner works cannot deadlock; under
// -race this also checks that funcs and series are read safely.
func TestFuncSeriesScrapeUnderOwnerLock(t *testing.T) {
	r := NewRegistry()
	var owner struct {
		sync.Mutex
		n int
	}
	r.GaugeFunc("owner_items", "items the owner holds", nil, func() float64 {
		owner.Lock()
		defer owner.Unlock()
		return float64(owner.n)
	})
	r.CounterFunc("owner_items_added_total", "items the owner added", nil, func() float64 {
		owner.Lock()
		defer owner.Unlock()
		return float64(owner.n)
	})
	pushed := r.Counter("owner_pushes_total", "", nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	var updates atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				owner.Lock()
				owner.n++
				pushed.Inc()
				r.Gauge("owner_shard", "", Labels{"shard": fmt.Sprint(w, i%8)}).Set(float64(i))
				owner.Unlock()
				updates.Add(1)
			}
		}(w)
	}

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var last float64
		for updates.Load() < 2000 {
			for _, s := range r.Gather() {
				if s.Name == "owner_items_added_total" {
					if s.Value < last {
						t.Errorf("func counter went backwards: %v after %v", s.Value, last)
					}
					last = s.Value
				}
			}
		}
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("scrape deadlocked against the owner's lock")
	}
	close(done)
	wg.Wait()
}

// TestHistogramBucketValueMismatchPanics re-registers a histogram with the
// same number of buckets but different bounds — this must panic, not
// silently bucket against the first registrant's bounds.
func TestHistogramBucketValueMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("hb", "", []float64{1, 2, 3}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different equal-length bounds must panic")
		}
	}()
	r.Histogram("hb", "", []float64{1, 2, 4}, nil)
}

func TestMetricTypeString(t *testing.T) {
	for typ, want := range map[MetricType]string{
		TypeCounter: "counter", TypeGauge: "gauge", TypeHistogram: "histogram",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}
