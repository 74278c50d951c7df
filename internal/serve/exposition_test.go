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
			`"ingress_bw": "8Gbps"`, fmt.Sprintf(`"ingress_bw": %d`, 3_000_000_000+i*1_000_000), 1))
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
