package obs

import (
	"strings"
	"testing"
)

// fullRegistry builds a registry exercising every metric kind and the
// label-escaping corners, mirroring what the real binaries register.
func fullRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("lognic_requests_total", "requests served", Labels{"endpoint": "simulate", "code": "200"}).Add(12)
	reg.Counter("lognic_requests_total", "requests served", Labels{"endpoint": "estimate", "code": "500"}).Add(1)
	reg.Gauge("lognic_queue_depth", "instantaneous queue depth", nil).Set(3)
	reg.Gauge("lognic_weird_labels", "label escaping", Labels{"path": `a\b"c` + "\nd"}).Set(1)
	h := reg.Histogram("lognic_latency_seconds", "request latency", ExpBuckets(1e-4, 2, 12), nil)
	for _, v := range []float64{0.0001, 0.001, 0.01, 0.1, 1, 10} {
		h.Observe(v)
	}
	reg.CounterFunc("lognic_served_total", "requests served, read at scrape time", Labels{"tenant": "a"}, func() float64 { return 5 })
	reg.GaugeFunc("lognic_inflight", "evaluations running, read at scrape time", nil, func() float64 { return 2 })
	RegisterBuildInfo(reg)
	return reg
}

// TestWritePrometheusPassesLint is the exposition-format regression gate:
// everything Registry.WritePrometheus produces must satisfy the text
// 0.0.4 grammar and the histogram invariants promtool checks.
func TestWritePrometheusPassesLint(t *testing.T) {
	var sb strings.Builder
	if err := fullRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if errs := LintExposition([]byte(out)); errs != nil {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("exposition output failed lint:\n%s", out)
	}
}

func TestLintAcceptsCanonicalPayload(t *testing.T) {
	good := `# HELP http_requests_total total requests
# TYPE http_requests_total counter
http_requests_total{method="get",code="200"} 1027
http_requests_total{method="post",code="200"} 3

# TYPE rpc_duration_seconds histogram
rpc_duration_seconds_bucket{le="0.05"} 24054
rpc_duration_seconds_bucket{le="0.1"} 33444
rpc_duration_seconds_bucket{le="+Inf"} 34444
rpc_duration_seconds_sum 53423
rpc_duration_seconds_count 34444
# HELP temp_celsius a gauge with odd values
# TYPE temp_celsius gauge
temp_celsius{site="lab\n2",note="say \"hi\" \\ bye"} -40.5
`
	if errs := LintExposition([]byte(good)); errs != nil {
		t.Fatalf("canonical payload rejected: %v", errs)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		want    string
	}{
		{
			"sample without TYPE",
			"mystery_metric 1\n",
			"without a preceding TYPE",
		},
		{
			"HELP after TYPE",
			"# TYPE m counter\n# HELP m late help\nm 1\n",
			"after its TYPE",
		},
		{
			"TYPE after samples",
			"# HELP m h\nm 1\n# TYPE m counter\n",
			"without a preceding TYPE",
		},
		{
			"interleaved families",
			"# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n",
			"reopened",
		},
		{
			"duplicate TYPE",
			"# TYPE m counter\n# TYPE m counter\nm 1\n",
			"duplicate TYPE",
		},
		{
			"unknown type keyword",
			"# TYPE m enum\nm 1\n",
			"unknown TYPE",
		},
		{
			"negative counter",
			"# TYPE m counter\nm -1\n",
			"non-negative",
		},
		{
			"invalid metric name",
			"# TYPE 9bad counter\n9bad 1\n",
			"invalid metric name",
		},
		{
			"invalid label name",
			"# TYPE m gauge\nm{9bad=\"x\"} 1\n",
			"invalid label name",
		},
		{
			"unquoted label value",
			"# TYPE m gauge\nm{l=raw} 1\n",
			"unquoted label value",
		},
		{
			"illegal escape",
			"# TYPE m gauge\nm{l=\"a\\tb\"} 1\n",
			"illegal escape",
		},
		{
			"unterminated label set",
			"# TYPE m gauge\nm{l=\"x\" 1\n",
			"malformed label",
		},
		{
			"unparseable value",
			"# TYPE m gauge\nm{} one\n",
			"unparseable value",
		},
		{
			"histogram missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 2\nh_count 2\n",
			"missing le=+Inf",
		},
		{
			"histogram non-cumulative buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 2\nh_count 5\n",
			"not cumulative",
		},
		{
			"histogram +Inf != count",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 2\nh_count 7\n",
			"!= _count",
		},
		{
			"histogram missing _sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
			"missing _sum",
		},
		{
			"histogram bucket without le",
			"# TYPE h histogram\nh_bucket 5\nh_sum 1\nh_count 5\n",
			"missing le label",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := LintExposition([]byte(tc.payload))
			if errs == nil {
				t.Fatalf("lint accepted bad payload:\n%s", tc.payload)
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no error matching %q in %v", tc.want, errs)
			}
		})
	}
}
