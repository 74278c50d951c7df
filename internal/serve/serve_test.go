package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lognic/internal/obs"
)

// sampleSpec is the spec package's echo-pipeline example.
const sampleSpec = `{
  "name": "echo",
  "hardware": {"interface_bw": "50Gbps", "memory_bw": 160e9},
  "graph": {
    "vertices": [
      {"name": "rx", "kind": "ingress"},
      {"name": "cores", "throughput": "10Gbps", "parallelism": 8, "queue_capacity": 64, "overhead": 3e-7},
      {"name": "ssd", "throughput": 7e8, "parallelism": 16, "queue_capacity": 256, "queue_model": "mmck"},
      {"name": "tx", "kind": "egress"}
    ],
    "edges": [
      {"from": "rx", "to": "cores", "delta": 1, "alpha": 1},
      {"from": "cores", "to": "ssd", "delta": 1, "alpha": 1, "beta": 1},
      {"from": "ssd", "to": "tx", "delta": 1, "bandwidth": "100Gbps"}
    ]
  },
  "traffic": {"ingress_bw": "8Gbps", "granularity": "4KB"}
}`

func estimateBody(spec string) string {
	return `{"spec": ` + spec + `}`
}

func post(t *testing.T, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func TestEstimateRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pt PointResult
	if err := json.Unmarshal(body, &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Throughput <= 0 || pt.Latency <= 0 || pt.Bottleneck == "" {
		t.Fatalf("implausible estimate: %+v", pt)
	}
	if pt.IngressBW != 1e9 {
		t.Fatalf("IngressBW = %v, want 1e9 (8Gbps)", pt.IngressBW)
	}
	if len(pt.Constraints) == 0 || len(pt.PathsLatency) == 0 {
		t.Fatal("estimate should include constraints and paths")
	}
}

func TestOptimizeRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"spec": ` + sampleSpec + `, "goal": "goodput",
	          "knobs": [{"vertex": "cores", "param": "parallelism", "lo": 1, "hi": 8}]}`
	resp, out := post(t, ts.Client(), ts.URL+"/v1/optimize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var res OptimizeResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Goal != "max-goodput" || res.Objective <= 0 {
		t.Fatalf("optimize result: %+v", res)
	}
	v, ok := res.Knobs["cores.parallelism"]
	if !ok || v < 1 || v > 8 {
		t.Fatalf("knob result: %+v", res.Knobs)
	}
	if !res.Exhaustive || res.Evaluated != 8 {
		t.Fatalf("Evaluated=%d Exhaustive=%v, want 8/true", res.Evaluated, res.Exhaustive)
	}
}

func TestSimulateRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"spec": ` + sampleSpec + `, "duration": 0.002, "seed": 7}`
	resp, out := post(t, ts.Client(), ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var res struct {
		SimTime          float64
		DeliveredPackets uint64
		Throughput       float64
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.SimTime <= 0 || res.DeliveredPackets == 0 || res.Throughput <= 0 {
		t.Fatalf("implausible simulation: %+v", res)
	}
}

func TestErrorStatusCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed json", "/v1/estimate", `{"spec": nope`, http.StatusBadRequest},
		{"unknown field", "/v1/estimate", `{"sepc": {}}`, http.StatusBadRequest},
		{"invalid spec", "/v1/estimate", estimateBody(`{"name":"empty","graph":{"vertices":[],"edges":[]},"traffic":{"ingress_bw":1,"granularity":64}}`), http.StatusBadRequest},
		{"unknown goal", "/v1/optimize", `{"spec": ` + sampleSpec + `, "goal": "speed", "knobs": [{"vertex":"cores","param":"queue","lo":1,"hi":2}]}`, http.StatusBadRequest},
		{"no knobs", "/v1/optimize", `{"spec": ` + sampleSpec + `, "goal": "latency", "knobs": []}`, http.StatusBadRequest},
		{"bad knob vertex", "/v1/optimize", `{"spec": ` + sampleSpec + `, "goal": "latency", "knobs": [{"vertex":"ghost","param":"queue","lo":1,"hi":2}]}`, http.StatusBadRequest},
		{"missing duration", "/v1/simulate", `{"spec": ` + sampleSpec + `}`, http.StatusBadRequest},
		{"negative shards", "/v1/simulate", `{"spec": ` + sampleSpec + `, "duration": 0.002, "shards": -1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := post(t, ts.Client(), ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, out)
			}
			var eb errorBody
			if err := json.Unmarshal(out, &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body %q should be {\"error\": ...}", out)
			}
		})
	}

	// Wrong method on an API route.
	resp, err := ts.Client().Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/estimate status %d, want 405", resp.StatusCode)
	}
}

func TestSimulateBudgetExceededIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSimEvents: 100})
	body := `{"spec": ` + sampleSpec + `, "duration": 1.0, "seed": 1}`
	resp, out := post(t, ts.Client(), ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, out)
	}
}

// Cache hits must replay the cold response byte for byte — asserted both
// against the same server's cold response and against an independent
// server evaluating from scratch.
func TestCacheByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, ep := range []struct{ path, body string }{
		{"/v1/estimate", estimateBody(sampleSpec)},
		{"/v1/optimize", `{"spec": ` + sampleSpec + `, "goal": "latency", "knobs": [{"vertex":"cores","param":"parallelism","lo":1,"hi":4}]}`},
		{"/v1/simulate", `{"spec": ` + sampleSpec + `, "duration": 0.002, "seed": 3}`},
	} {
		cold, coldBody := post(t, ts.Client(), ts.URL+ep.path, ep.body)
		warm, warmBody := post(t, ts.Client(), ts.URL+ep.path, ep.body)
		if cold.StatusCode != 200 || warm.StatusCode != 200 {
			t.Fatalf("%s: status %d/%d", ep.path, cold.StatusCode, warm.StatusCode)
		}
		if cold.Header.Get("X-Cache") != "miss" || warm.Header.Get("X-Cache") != "hit" {
			t.Fatalf("%s: X-Cache %q/%q, want miss/hit", ep.path,
				cold.Header.Get("X-Cache"), warm.Header.Get("X-Cache"))
		}
		if !bytes.Equal(coldBody, warmBody) {
			t.Fatalf("%s: warm body differs from cold:\n%s\n%s", ep.path, coldBody, warmBody)
		}

		// An independent server must produce the same bytes cold.
		_, ts2 := newTestServer(t, Config{})
		_, freshBody := post(t, ts2.Client(), ts2.URL+ep.path, ep.body)
		if !bytes.Equal(coldBody, freshBody) {
			t.Fatalf("%s: fresh server disagrees with cached bytes", ep.path)
		}
	}
	hits, misses := metric(t, s, "lognic_serve_cache_hits_total"), metric(t, s, "lognic_serve_cache_misses_total")
	if hits != 3 || misses != 3 {
		t.Fatalf("hits=%v misses=%v, want 3/3", hits, misses)
	}
}

// Whitespace, key order and unit spellings must share one cache entry.
func TestCacheKeyCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	variant := strings.NewReplacer(
		`"8Gbps"`, `1e9`,
		`"4KB"`, `4096`,
		"\n", "", "  ", " ",
	).Replace(sampleSpec)
	_, a := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	warm, b := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(variant))
	if warm.Header.Get("X-Cache") != "hit" {
		t.Fatal("canonically-equal request should hit the cache")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("responses must be byte-identical")
	}
}

func TestCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	r1, _ := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	r2, _ := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	if r1.Header.Get("X-Cache") != "miss" || r2.Header.Get("X-Cache") != "miss" {
		t.Fatal("disabled cache must never hit")
	}
}

// With one worker and a queue of one, a third concurrent request must be
// shed with 429 + Retry-After while the first two eventually succeed.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testDelay = func(string) {
		entered <- struct{}{}
		<-release
	}

	type outcome struct {
		code  int
		retry string
	}
	results := make(chan outcome, 3)
	do := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json",
			strings.NewReader(estimateBody(sampleSpec)))
		if err != nil {
			results <- outcome{code: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- outcome{code: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	}

	// First request occupies the worker...
	go do()
	<-entered
	// ...second occupies the queue slot...
	go do()
	waitFor(t, func() bool { return s.queued.Load() == 1 })
	// ...third must be rejected immediately.
	go do()
	rejected := <-results
	if rejected.code != http.StatusTooManyRequests {
		t.Fatalf("third request status %d, want 429", rejected.code)
	}
	if rejected.retry == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if got := metric(t, s, "lognic_serve_rejected_total"); got != 1 {
		t.Fatalf("rejected counter = %v, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Fatalf("admitted request status %d, want 200", r.code)
		}
	}
}

// metric reads one lognic_serve_* series, keyed name{labels} as
// promSeries keys it, from the server's Prometheus exposition.
func metric(t *testing.T, s *Server, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.cfg.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text, ok := promSeries(t, buf.Bytes())[series]
	if !ok {
		t.Fatalf("/metrics has no series %s", series)
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// A request that outlives the per-request timeout while queued gets 504.
func TestQueueedRequestTimesOut(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, CacheEntries: -1,
		RequestTimeout: 50 * time.Millisecond,
	})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testDelay = func(string) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	defer close(release)

	done := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json",
			strings.NewReader(estimateBody(sampleSpec)))
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered

	resp, body := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued request status %d, want 504: %s", resp.StatusCode, body)
	}
	// The first request also overstayed its own deadline while blocked in
	// the worker, so it 504s too — the timeout bounds total time, not just
	// queue wait.
	release <- struct{}{}
	if code := <-done; code != http.StatusGatewayTimeout {
		t.Fatalf("first request status %d, want 504", code)
	}
}

// The daemon must sustain 1000 concurrent in-flight requests with zero
// drops when the queue is deep enough (acceptance gate, run under -race).
func TestThousandConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 2048, CacheEntries: 2048})
	const n = 1000
	var wg sync.WaitGroup
	codes := make([]int, n)
	client := ts.Client()
	client.Transport.(*http.Transport).MaxConnsPerHost = 0
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Unique ingress rates defeat the cache so every request
			// really evaluates.
			body := estimateBody(strings.Replace(sampleSpec,
				`"ingress_bw": "8Gbps"`, fmt.Sprintf(`"ingress_bw": %d`, 100_000_000+i*100_000), 1))
			resp, err := client.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 (zero non-429 drops; queue was deep enough for zero 429s)", i, c)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)
	s, ts := newTestServer(t, Config{Registry: reg, Tracer: tracer})
	post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz = %+v, err %v", health, err)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`lognic_serve_requests_total{code="200",endpoint="estimate"} 1`,
		"lognic_serve_request_seconds",
		"lognic_serve_cache_misses_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if tracer.Len() != 1 {
		t.Fatalf("tracer has %d spans, want 1", tracer.Len())
	}
	_ = s
}

func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t, Config{Pprof: true})
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	resp, _ := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
}

// Serve must keep running until canceled, then drain in-flight work.
func TestServeContextCancelDrains(t *testing.T) {
	s := NewServer(Config{Addr: "127.0.0.1:0", CacheEntries: -1})
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testDelay = func(string) {
		entered <- struct{}{}
		<-release
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+s.Addr()+"/v1/estimate", "application/json",
			strings.NewReader(estimateBody(sampleSpec)))
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-entered

	// Begin shutdown while the request is still in flight.
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if code := <-reqDone; code != http.StatusOK {
		t.Fatalf("in-flight request status %d, want 200", code)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil after clean drain", err)
	}
}
