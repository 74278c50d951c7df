package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"lognic/internal/obs"
	"lognic/internal/obs/slo"
)

// promSeries parses a Prometheus text exposition into series → value,
// keeping only lognic_serve_* samples.
func promSeries(t *testing.T, text []byte) map[string]string {
	t.Helper()
	out := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "lognic_serve_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		out[line[:i]] = line[i+1:]
	}
	return out
}

// An untenanted server's /metrics and /v1/slo are a compatibility
// surface: dashboards and the storm's SLO verdicts parse them. This pins
// the exact lognic_serve_* series set and its counter and gauge values
// after a fixed request sequence — a miss, an exact-body L1 hit, a
// canonical hit through a reshaped body, a 400, and a 429 — so a change
// to the request path cannot leak tenant labels or partition gauges into
// untenanted exposition, or drift a count.
func TestUntenantedExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, Registry: reg,
		SLOLatencyThreshold: time.Minute,
	})
	c := ts.Client()
	unique := func(i int) string {
		return estimateBody(strings.Replace(sampleSpec,
			`"ingress_bw": "8Gbps"`, fmt.Sprintf(`"ingress_bw": %d`, 3_000_000_000+int64(i)*1_000_000), 1))
	}
	// missBytes sums the response bodies the cache stored, for the
	// cache_bytes gauge below.
	var missBytes int64
	expect := func(body, wantCache string, wantCode int) {
		t.Helper()
		resp, out := post(t, c, ts.URL+"/v1/estimate", body)
		if resp.StatusCode != wantCode || resp.Header.Get("X-Cache") != wantCache {
			t.Fatalf("status %d X-Cache %q, want %d %q: %s",
				resp.StatusCode, resp.Header.Get("X-Cache"), wantCode, wantCache, out)
		}
		if wantCache == "miss" {
			missBytes += int64(len(out))
		}
	}

	body := estimateBody(sampleSpec)
	expect(body, "miss", http.StatusOK)
	expect(body, "hit", http.StatusOK)                          // exact-body L1 hit
	expect(`{ "spec" : `+sampleSpec+` }`, "hit", http.StatusOK) // canonical hit
	expect(`{"spec": nope`, "", http.StatusBadRequest)

	// Hold the only worker, fill the only queue slot, then shed one.
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.testDelay = func(string) {
		entered <- struct{}{}
		<-release
	}
	held := make(chan int64, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, err := c.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(unique(i)))
			if err != nil {
				t.Error(err)
				held <- 0
				return
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("held request %d: status %d", i, resp.StatusCode)
			}
			held <- int64(len(out))
		}(i)
		if i == 0 {
			<-entered
		}
	}
	waitFor(t, func() bool { return s.queued.Load() == 1 })
	expect(unique(2), "", http.StatusTooManyRequests)
	close(release)
	missBytes += <-held + <-held

	_, text := get(t, c, ts.URL+"/metrics")
	got := promSeries(t, text)

	// Counters and gauges, exactly. Keys are 64-hex SHA-256 digests and
	// count toward the byte gauge.
	want := map[string]string{
		"lognic_serve_cache_bytes":                                    fmt.Sprint(missBytes + 3*64),
		"lognic_serve_cache_entries":                                  "3",
		"lognic_serve_cache_hit_ratio":                                "0.4",
		"lognic_serve_cache_hits_total":                               "2",
		"lognic_serve_cache_l1_hits_total":                            "1",
		"lognic_serve_cache_misses_total":                             "3",
		"lognic_serve_inflight":                                       "0",
		"lognic_serve_queue_depth":                                    "0",
		"lognic_serve_rejected_total":                                 "1",
		`lognic_serve_requests_total{code="200",endpoint="estimate"}`: "5",
		`lognic_serve_requests_total{code="400",endpoint="estimate"}`: "1",
		`lognic_serve_requests_total{code="429",endpoint="estimate"}`: "1",
		`lognic_serve_request_seconds_count{endpoint="estimate"}`:     "7",
		`lognic_serve_request_seconds_count{endpoint="optimize"}`:     "0",
		`lognic_serve_request_seconds_count{endpoint="simulate"}`:     "0",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %q, want %q", k, got[k], v)
		}
	}

	// The series set, exactly: the gauges and counters above plus the
	// latency histogram's buckets and sums, and nothing else.
	wantKeys := make(map[string]bool, len(want))
	for k := range want {
		wantKeys[k] = true
	}
	for _, ep := range endpoints {
		for _, b := range obs.ExpBuckets(1e-5, 4, 14) {
			wantKeys[fmt.Sprintf(`lognic_serve_request_seconds_bucket{endpoint=%q,le="%g"}`, ep, b)] = true
		}
		wantKeys[fmt.Sprintf(`lognic_serve_request_seconds_bucket{endpoint=%q,le="+Inf"}`, ep)] = true
		wantKeys[fmt.Sprintf(`lognic_serve_request_seconds_sum{endpoint=%q}`, ep)] = true
	}
	var extra, missing []string
	for k := range got {
		if !wantKeys[k] {
			extra = append(extra, k)
		}
	}
	for k := range wantKeys {
		if _, ok := got[k]; !ok {
			missing = append(missing, k)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	if len(extra) > 0 || len(missing) > 0 {
		t.Fatalf("untenanted series set drifted:\nunexpected %q\nmissing %q", extra, missing)
	}
	if bytes.Contains(text, []byte("tenant=")) || bytes.Contains(text, []byte("cache_partition")) {
		t.Fatal("untenanted exposition carries tenant labels or partition gauges")
	}

	_, sloBody := get(t, c, ts.URL+"/v1/slo")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(sloBody, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["tenants"]; ok {
		t.Fatalf("untenanted /v1/slo carries a tenants key: %s", sloBody)
	}
	dec := json.NewDecoder(bytes.NewReader(sloBody))
	dec.DisallowUnknownFields()
	var st slo.Status
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("untenanted /v1/slo is not a plain slo.Status: %v\n%s", err, sloBody)
	}
	if st.Windows[0].Total != 6 {
		t.Fatalf("SLO 5m window counts %d requests, want 6 (the 429 is excluded)", st.Windows[0].Total)
	}
}

// A tenanted server's /metrics is the per-tenant view of the same
// numbers: every unlabeled counter and gauge is the sum of its
// tenant-labeled series, and each cache partition (the spillover pool
// included) reports its occupancy and budget. This pins the exact
// lognic_serve_* series set and every counter and gauge value after a
// fixed sequence — the light tenant's miss, exact-body L1 hit, canonical
// hit and 400, then the heavy tenant's two admitted misses and one 429 —
// so no change to the request path can drop a tenant's count or
// let a label set drift.
func TestTenantedExposition(t *testing.T) {
	reg := obs.NewRegistry()
	// Weights default 1, heavy 3, light 1 give every tenant one worker
	// and one queue slot. A quarter of the byte budget is spillover; the
	// rest splits 1:3:1.
	s, ts := newTestServer(t, Config{
		Workers: 3, QueueDepth: 3, Registry: reg,
		CacheBytes: 1 << 20, TenantCacheSpill: 0.25,
		TenantWeights:       map[string]float64{"heavy": 3, "light": 1},
		SLOLatencyThreshold: time.Minute,
	})
	heavy := s.tenants["heavy"]
	if heavy.workerShare != 1 || heavy.queueShare != 1 {
		t.Fatalf("heavy share %d workers / %d queue, want 1/1", heavy.workerShare, heavy.queueShare)
	}
	c := ts.Client()
	unique := func(i int) string {
		return estimateBody(strings.Replace(sampleSpec,
			`"ingress_bw": "8Gbps"`, fmt.Sprintf(`"ingress_bw": %d`, 3_000_000_000+int64(i)*1_000_000), 1))
	}
	send := func(tenant, body string) (*http.Response, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate", strings.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(tenantHeader, tenant)
		resp, err := c.Do(req)
		if err != nil {
			return nil, nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out, err
	}
	// lightBytes sums the light tenant's stored response bodies, for its
	// partition gauge below.
	var lightBytes int64
	expect := func(tenant, body, wantCache string, wantCode int) {
		t.Helper()
		resp, out, err := send(tenant, body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode || resp.Header.Get("X-Cache") != wantCache {
			t.Fatalf("%s: status %d X-Cache %q, want %d %q: %s", tenant,
				resp.StatusCode, resp.Header.Get("X-Cache"), wantCode, wantCache, out)
		}
		if wantCache == "miss" {
			lightBytes += int64(len(out))
		}
	}

	body := estimateBody(sampleSpec)
	expect("light", body, "miss", http.StatusOK)
	expect("light", body, "hit", http.StatusOK)                          // exact-body L1 hit
	expect("light", `{ "spec" : `+sampleSpec+` }`, "hit", http.StatusOK) // canonical hit
	expect("light", `{"spec": nope`, "", http.StatusBadRequest)

	// Hold heavy's only worker, fill its only queue slot, then shed one.
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.testDelay = func(string) {
		entered <- struct{}{}
		<-release
	}
	held := make(chan int64, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, out, err := send("heavy", unique(i))
			if err != nil {
				t.Error(err)
				held <- 0
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("held request %d: status %d", i, resp.StatusCode)
			}
			held <- int64(len(out))
		}(i)
		if i == 0 {
			<-entered
		}
	}
	waitFor(t, func() bool { return heavy.queued.Load() == 1 })
	if resp, out, err := send("heavy", unique(2)); err != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third heavy request: %v %v %s, want 429", resp, err, out)
	}
	close(release)
	heavyBytes := <-held + <-held

	_, text := get(t, c, ts.URL+"/metrics")
	got := promSeries(t, text)

	// Counters and gauges, exactly. Keys are 64-hex SHA-256 digests and
	// count toward the byte gauges. Budgets: the spill pool takes 262144
	// of the 1 MiB; the remaining 786432 splits 1:3:1 by largest
	// remainder, the odd byte going to default (ties break by name).
	lightPart, heavyPart := lightBytes+64, heavyBytes+2*64
	want := map[string]string{
		"lognic_serve_cache_bytes":         fmt.Sprint(lightPart + heavyPart),
		"lognic_serve_cache_entries":       "3",
		"lognic_serve_cache_hit_ratio":     "0.4",
		"lognic_serve_cache_hits_total":    "2",
		"lognic_serve_cache_l1_hits_total": "1",
		"lognic_serve_cache_misses_total":  "3",
		"lognic_serve_inflight":            "0",
		"lognic_serve_queue_depth":         "0",
		"lognic_serve_rejected_total":      "1",

		`lognic_serve_cache_hits_total{tenant="default"}`:   "0",
		`lognic_serve_cache_hits_total{tenant="heavy"}`:     "0",
		`lognic_serve_cache_hits_total{tenant="light"}`:     "2",
		`lognic_serve_cache_misses_total{tenant="default"}`: "0",
		`lognic_serve_cache_misses_total{tenant="heavy"}`:   "2",
		`lognic_serve_cache_misses_total{tenant="light"}`:   "1",
		`lognic_serve_rejected_total{tenant="default"}`:     "0",
		`lognic_serve_rejected_total{tenant="heavy"}`:       "1",
		`lognic_serve_rejected_total{tenant="light"}`:       "0",
		`lognic_serve_inflight{tenant="default"}`:           "0",
		`lognic_serve_inflight{tenant="heavy"}`:             "0",
		`lognic_serve_inflight{tenant="light"}`:             "0",
		`lognic_serve_queue_depth{tenant="default"}`:        "0",
		`lognic_serve_queue_depth{tenant="heavy"}`:          "0",
		`lognic_serve_queue_depth{tenant="light"}`:          "0",

		`lognic_serve_cache_partition_bytes{tenant="*"}`:              "0",
		`lognic_serve_cache_partition_bytes{tenant="default"}`:        "0",
		`lognic_serve_cache_partition_bytes{tenant="heavy"}`:          fmt.Sprint(heavyPart),
		`lognic_serve_cache_partition_bytes{tenant="light"}`:          fmt.Sprint(lightPart),
		`lognic_serve_cache_partition_entries{tenant="*"}`:            "0",
		`lognic_serve_cache_partition_entries{tenant="default"}`:      "0",
		`lognic_serve_cache_partition_entries{tenant="heavy"}`:        "2",
		`lognic_serve_cache_partition_entries{tenant="light"}`:        "1",
		`lognic_serve_cache_partition_budget_bytes{tenant="*"}`:       "262144",
		`lognic_serve_cache_partition_budget_bytes{tenant="default"}`: "157287",
		`lognic_serve_cache_partition_budget_bytes{tenant="heavy"}`:   "471859",
		`lognic_serve_cache_partition_budget_bytes{tenant="light"}`:   "157286",

		`lognic_serve_requests_total{code="200",endpoint="estimate",tenant="heavy"}`: "2",
		`lognic_serve_requests_total{code="429",endpoint="estimate",tenant="heavy"}`: "1",
		`lognic_serve_requests_total{code="200",endpoint="estimate",tenant="light"}`: "3",
		`lognic_serve_requests_total{code="400",endpoint="estimate",tenant="light"}`: "1",
		`lognic_serve_request_seconds_count{endpoint="estimate"}`:                    "7",
		`lognic_serve_request_seconds_count{endpoint="optimize"}`:                    "0",
		`lognic_serve_request_seconds_count{endpoint="simulate"}`:                    "0",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %q, want %q", k, got[k], v)
		}
	}

	// The series set, exactly: the counters and gauges above plus the
	// latency histogram's buckets and sums, and nothing else.
	wantKeys := make(map[string]bool, len(want))
	for k := range want {
		wantKeys[k] = true
	}
	for _, ep := range endpoints {
		for _, b := range obs.ExpBuckets(1e-5, 4, 14) {
			wantKeys[fmt.Sprintf(`lognic_serve_request_seconds_bucket{endpoint=%q,le="%g"}`, ep, b)] = true
		}
		wantKeys[fmt.Sprintf(`lognic_serve_request_seconds_bucket{endpoint=%q,le="+Inf"}`, ep)] = true
		wantKeys[fmt.Sprintf(`lognic_serve_request_seconds_sum{endpoint=%q}`, ep)] = true
	}
	var extra, missing []string
	for k := range got {
		if !wantKeys[k] {
			extra = append(extra, k)
		}
	}
	for k := range wantKeys {
		if _, ok := got[k]; !ok {
			missing = append(missing, k)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	if len(extra) > 0 || len(missing) > 0 {
		t.Fatalf("tenanted series set drifted:\nunexpected %q\nmissing %q", extra, missing)
	}

	// /v1/slo carries one row per tenant, each counting only its own
	// admitted requests (the heavy tenant's 429 is excluded).
	_, sloBody := get(t, c, ts.URL+"/v1/slo")
	var rep sloReport
	if err := json.Unmarshal(sloBody, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Windows[0].Total != 6 {
		t.Fatalf("server-wide SLO 5m window counts %d requests, want 6", rep.Windows[0].Total)
	}
	for name, total := range map[string]uint64{"default": 0, "heavy": 2, "light": 4} {
		row, ok := rep.Tenants[name]
		if !ok {
			t.Fatalf("/v1/slo missing tenant %q: %s", name, sloBody)
		}
		if row.Windows[0].Total != total {
			t.Errorf("tenant %s SLO 5m window counts %d requests, want %d", name, row.Windows[0].Total, total)
		}
	}
}
