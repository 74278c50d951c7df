package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"lognic/internal/obs"
	"lognic/internal/obs/olog"
	"lognic/internal/obs/slo"
)

var hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)

// A request carrying a W3C traceparent joins the client's trace: the
// server's request span is a child of the client span, the simulation's
// vertex spans inherit the same trace id, and X-Request-Id echoes the
// server span so client logs and server spans correlate.
func TestTracePropagationSyncEndpoint(t *testing.T) {
	tracer := obs.NewTracer(4096)
	_, ts := newTestServer(t, Config{Tracer: tracer, CacheEntries: -1})

	const clientTrace = "0af7651916cd43dd8448eb211c80319c"
	const clientSpan = "b7ad6b7169203331"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader(`{"spec": `+sampleSpec+`, "duration": 0.002, "seed": 7}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+clientTrace+"-"+clientSpan+"-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if !hex16.MatchString(reqID) || reqID == clientSpan {
		t.Fatalf("X-Request-Id %q, want a fresh 16-hex server span id", reqID)
	}

	var reqSpans, simSpans int
	for _, sp := range tracer.Spans() {
		if sp.TraceID != clientTrace {
			t.Fatalf("span %q carries trace %q, want the client's %s", sp.Name, sp.TraceID, clientTrace)
		}
		switch sp.Cat {
		case "request":
			reqSpans++
			if sp.SpanID != reqID || sp.ParentID != clientSpan {
				t.Fatalf("request span %+v, want span=%s parent=%s", sp, reqID, clientSpan)
			}
		case obs.CatVertex, obs.CatQueue, obs.CatService, obs.CatTransfer:
			simSpans++
			if sp.ParentID != reqID {
				t.Fatalf("sim span %q parent %q, want the request span %s", sp.Name, sp.ParentID, reqID)
			}
		}
	}
	if reqSpans != 1 || simSpans == 0 {
		t.Fatalf("%d request spans, %d sim spans; want 1 and >0", reqSpans, simSpans)
	}
}

// The async path: a traced job submission journals the traceparent, the
// attempt span is a child in the same trace, and the simulation spans
// hang off the attempt.
func TestTracePropagationAsyncJob(t *testing.T) {
	tracer := obs.NewTracer(4096)
	_, ts := newTestServer(t, Config{Tracer: tracer, CacheEntries: -1})
	waitReady(t, ts.Client(), ts.URL)

	const clientTrace = "11111111111111111111111111111111"
	const clientSpan = "2222222222222222"
	body := fmt.Sprintf(`{"kind": "simulate", "request": {"spec": %s, "duration": 0.002, "seed": 3}}`, sampleSpec)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+clientTrace+"-"+clientSpan+"-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); !hex16.MatchString(got) {
		t.Fatalf("X-Request-Id %q on job submit", got)
	}
	pollJob(t, ts.Client(), ts.URL, v.ID)

	var attempt, sim int
	var attemptSpan string
	for _, sp := range tracer.Spans() {
		if sp.TraceID != clientTrace {
			continue
		}
		switch sp.Cat {
		case "job":
			attempt++
			attemptSpan = sp.SpanID
		case obs.CatVertex:
			sim++
		}
	}
	if attempt != 1 || sim == 0 {
		t.Fatalf("%d attempt spans, %d sim vertex spans in the client's trace; want 1 and >0", attempt, sim)
	}
	for _, sp := range tracer.Spans() {
		if sp.TraceID == clientTrace && sp.Cat == obs.CatVertex && sp.ParentID != attemptSpan {
			t.Fatalf("sim span parent %q, want the attempt span %q", sp.ParentID, attemptSpan)
		}
	}
}

// Without a traceparent the server mints a root trace and still stamps
// X-Request-Id.
func TestRequestIDMintedWithoutTraceparent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	if got := resp.Header.Get("X-Request-Id"); !hex16.MatchString(got) {
		t.Fatalf("X-Request-Id %q, want 16 hex digits", got)
	}
}

// A malformed traceparent is ignored, not propagated.
func TestMalformedTraceparentIgnored(t *testing.T) {
	tracer := obs.NewTracer(64)
	_, ts := newTestServer(t, Config{Tracer: tracer, CacheEntries: -1})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate",
		strings.NewReader(estimateBody(sampleSpec)))
	req.Header.Set("traceparent", "00-zzzz-1234-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	spans := tracer.Spans()
	if len(spans) != 1 || spans[0].ParentID != "" || len(spans[0].TraceID) != 32 {
		t.Fatalf("spans after malformed traceparent: %+v, want one fresh root", spans)
	}
}

// GET /v1/trace exports the ring as a loadable Chrome trace with the W3C
// identity in args; without a tracer the route 404s.
func TestTraceEndpoint(t *testing.T) {
	_, bare := newTestServer(t, Config{})
	resp, _ := get(t, bare.Client(), bare.URL+"/v1/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace without tracer: %d, want 404", resp.StatusCode)
	}

	tracer := obs.NewTracer(64)
	_, ts := newTestServer(t, Config{Tracer: tracer, CacheEntries: -1})
	post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	resp, body := get(t, ts.Client(), ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "estimate" {
			found = true
			id, _ := ev.Args["trace_id"].(string)
			if len(id) != 32 {
				t.Fatalf("request event args %+v, want a 32-hex trace_id", ev.Args)
			}
		}
	}
	if !found {
		t.Fatalf("no request span in the export: %+v", doc.TraceEvents)
	}
}

// GET /v1/slo reports the multi-window burn-rate judgement, counting
// completed requests (5xx as errors) while excluding shed load.
func TestSLOEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{
		SLOLatencyThreshold: time.Minute, // nothing here is "slow"
	})
	for i := 0; i < 3; i++ {
		post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	}
	post(t, ts.Client(), ts.URL+"/v1/estimate", `{"spec": nope`) // 400: counted, not an error

	resp, body := get(t, ts.Client(), ts.URL+"/v1/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slo: %d %s", resp.StatusCode, body)
	}
	var st slo.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.AvailabilityTarget != 0.999 || st.LatencyTarget != 0.99 {
		t.Fatalf("targets %+v, want the 0.999/0.99 defaults", st)
	}
	if len(st.Windows) != 2 || st.Windows[0].Window != "5m" || st.Windows[1].Window != "1h" {
		t.Fatalf("windows %+v, want 5m and 1h", st.Windows)
	}
	w := st.Windows[0]
	if w.Total != 4 || w.Errors != 0 || w.Availability != 1 {
		t.Fatalf("5m window %+v, want 4 requests, 0 errors", w)
	}
	if st.Verdict != "ok" {
		t.Fatalf("verdict %q on a healthy run", st.Verdict)
	}
	if s.tenants[defaultTenant].sloTotal.Load() != 4 {
		t.Fatalf("sloTotal = %d, want 4", s.tenants[defaultTenant].sloTotal.Load())
	}
}

// Shed load (429) must not burn availability budget: rejecting work
// under backpressure is the contract, not a failure.
func TestSLOExcludesShedLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testDelay = func(string) {
		entered <- struct{}{}
		<-release
	}
	results := make(chan int, 3)
	do := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json",
			strings.NewReader(estimateBody(sampleSpec)))
		if err != nil {
			results <- -1
			return
		}
		resp.Body.Close()
		results <- resp.StatusCode
	}
	go do()
	<-entered
	go do()
	waitFor(t, func() bool { return s.queued.Load() == 1 })
	go do()
	if code := <-results; code != http.StatusTooManyRequests {
		t.Fatalf("third request: %d, want 429", code)
	}
	close(release)
	<-results
	<-results
	if total := s.tenants[defaultTenant].sloTotal.Load(); total != 2 {
		t.Fatalf("sloTotal = %d, want 2 (the 429 is excluded)", total)
	}
	if errs := s.tenants[defaultTenant].sloErrors.Load(); errs != 0 {
		t.Fatalf("sloErrors = %d, want 0", errs)
	}
}

// /healthz reports the build identity alongside liveness.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h struct {
		Status    string `json:"status"`
		GoVersion string `json:"go_version"`
		Version   string `json:"version"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.GoVersion == "" || h.Version == "" {
		t.Fatalf("healthz body %s, want status/version/go_version", body)
	}
	_, goVersion, _ := obs.BuildInfo()
	if h.GoVersion != goVersion {
		t.Fatalf("go_version %q, want %q", h.GoVersion, goVersion)
	}
}

// The metrics export includes the build-info gauge and the SLO gauges.
func TestSLOAndBuildInfoMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg})
	post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	s.slo.Poll()
	_, body := get(t, ts.Client(), ts.URL+"/metrics")
	for _, want := range []string{
		"lognic_build_info{",
		`lognic_slo_burn_rate{objective="availability",window="5m"}`,
		`lognic_slo_compliance{objective="latency",window="1h"}`,
		"lognic_slo_verdict ",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// Every request ends in one "request complete" record: debug for a
// success, warn for a 5xx, with the request's correlation attributes in
// a fixed order and empty values omitted. The handler runs in-process so
// the record is written before ServeHTTP returns.
func TestRequestCompleteRecord(t *testing.T) {
	serveOnce := func(t *testing.T, cfg Config, level string, hdr map[string]string) (*httptest.ResponseRecorder, string) {
		t.Helper()
		var logs bytes.Buffer
		logger, err := (&olog.Options{Level: level, Format: "json"}).Logger(&logs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Logger = logger
		s := NewServer(cfg)
		t.Cleanup(s.Close)
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(estimateBody(sampleSpec)))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec, logs.String()
	}
	// record returns the one completion record's keys in written order
	// and its values.
	record := func(t *testing.T, logs string) ([]string, map[string]any) {
		t.Helper()
		var lines []string
		for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
			if strings.Contains(line, `"msg":"request complete"`) {
				lines = append(lines, line)
			}
		}
		if len(lines) != 1 {
			t.Fatalf("want one completion record, got %d:\n%s", len(lines), logs)
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
			t.Fatalf("not JSON: %v\n%s", err, lines[0])
		}
		dec := json.NewDecoder(strings.NewReader(lines[0]))
		if _, err := dec.Token(); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key.(string))
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				t.Fatal(err)
			}
		}
		return keys, rec
	}

	t.Run("ok untenanted", func(t *testing.T) {
		rec, logs := serveOnce(t, Config{}, "debug", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		keys, r := record(t, logs)
		want := []string{"time", "level", "msg", olog.KeyRequestID, olog.KeyTraceID, olog.KeyEndpoint, "code", "duration_seconds"}
		if fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Fatalf("keys %v, want %v", keys, want)
		}
		if r["level"] != "DEBUG" || r[olog.KeyEndpoint] != "estimate" || r["code"] != float64(200) {
			t.Fatalf("record %v", r)
		}
		if id := rec.Header().Get("X-Request-Id"); id == "" || r[olog.KeyRequestID] != id {
			t.Fatalf("request_id %v, X-Request-Id %q", r[olog.KeyRequestID], id)
		}
		if tid, _ := r[olog.KeyTraceID].(string); len(tid) != 32 {
			t.Fatalf("trace_id %q", tid)
		}
		if d, _ := r["duration_seconds"].(float64); d <= 0 {
			t.Fatalf("duration_seconds %v", r["duration_seconds"])
		}
	})

	t.Run("ok tenanted", func(t *testing.T) {
		cfg := Config{TenantWeights: map[string]float64{"alpha": 1}}
		rec, logs := serveOnce(t, cfg, "debug", map[string]string{tenantHeader: "alpha"})
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		keys, r := record(t, logs)
		want := []string{"time", "level", "msg", olog.KeyRequestID, olog.KeyTraceID, olog.KeyEndpoint, olog.KeyTenant, "code", "duration_seconds"}
		if fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Fatalf("keys %v, want %v", keys, want)
		}
		if r[olog.KeyTenant] != "alpha" || r[olog.KeyRequestID] != rec.Header().Get("X-Request-Id") {
			t.Fatalf("record %v", r)
		}
	})

	t.Run("5xx at warn", func(t *testing.T) {
		rec, logs := serveOnce(t, Config{RequestTimeout: time.Nanosecond, CacheEntries: -1}, "warn", nil)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
		}
		_, r := record(t, logs)
		if r["level"] != "WARN" || r["code"] != float64(http.StatusGatewayTimeout) {
			t.Fatalf("record %v", r)
		}
	})

	t.Run("200 silent at info", func(t *testing.T) {
		rec, logs := serveOnce(t, Config{}, "info", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if strings.Contains(logs, "request complete") {
			t.Fatalf("info level logged the completion record:\n%s", logs)
		}
	})
}
