package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lognic/internal/obs"
	"lognic/internal/storm"
)

func TestApportion(t *testing.T) {
	cases := []struct {
		total   int
		weights map[string]float64
		want    map[string]int
	}{
		// Exact shares.
		{4, map[string]float64{"default": 1, "heavy": 2, "light": 1},
			map[string]int{"default": 1, "heavy": 2, "light": 1}},
		// 10:1:1 over 12 slots.
		{12, map[string]float64{"default": 1, "heavy": 10, "light": 1},
			map[string]int{"default": 1, "heavy": 10, "light": 1}},
		// Minimum-one pushes the sum past total on tiny pools.
		{2, map[string]float64{"a": 100, "b": 1, "c": 1},
			map[string]int{"a": 1, "b": 1, "c": 1}},
		// Largest remainder: 7 slots at 3:2:2 → exact 3/2/2.
		{7, map[string]float64{"a": 3, "b": 2, "c": 2},
			map[string]int{"a": 3, "b": 2, "c": 2}},
		// 5 slots at 1:1:1 → floor 1 each, remainder 2 by weight-then-name
		// tie break (all equal weight, so a and b).
		{5, map[string]float64{"a": 1, "b": 1, "c": 1},
			map[string]int{"a": 2, "b": 2, "c": 1}},
	}
	for _, tc := range cases {
		names := make([]string, 0, len(tc.weights))
		for n := range tc.weights {
			names = append(names, n)
		}
		got := apportion(tc.total, names, tc.weights)
		for n, want := range tc.want {
			if got[n] != want {
				t.Fatalf("apportion(%d, %v)[%s] = %d, want %d (full: %v)",
					tc.total, tc.weights, n, got[n], want, got)
			}
		}
	}

	// Byte apportionment: spill comes off before this is called, so the
	// helper just splits. Every partition gets at least a byte; a disabled
	// bound (≤0) stays unbounded for everyone.
	names := []string{"a", "b"}
	weights := map[string]float64{"a": 3, "b": 1}
	b := apportionBytes(1000, names, weights)
	if b["a"] != 750 || b["b"] != 250 {
		t.Fatalf("apportionBytes(1000, 3:1) = %v", b)
	}
	b = apportionBytes(-1, names, weights)
	if b["a"] != 0 || b["b"] != 0 {
		t.Fatalf("disabled byte bound must stay unbounded: %v", b)
	}
}

func TestParseTenantWeights(t *testing.T) {
	tw, err := parseTenantWeights("alpha:10, beta:1")
	if err != nil || tw["alpha"] != 10 || tw["beta"] != 1 || len(tw) != 2 {
		t.Fatalf("parse = %v, %v", tw, err)
	}
	for _, bad := range []string{
		"", "alpha", "alpha:0", "alpha:-1", "alpha:x", "alpha:1,alpha:2",
		"*:1", ":1", "bad name:1",
	} {
		if _, err := parseTenantWeights(bad); err == nil {
			t.Fatalf("parseTenantWeights(%q) should error", bad)
		}
	}
}

// Tenancy disabled must be byte-for-byte today's behavior — headers are
// ignored, metrics stay unlabeled — and a tenancy-enabled server must
// serve an unlabeled request identically to an untenanted one.
func TestTenantDefaultPathByteCompat(t *testing.T) {
	regOff := obs.NewRegistry()
	_, tsOff := newTestServer(t, Config{Registry: regOff})
	sOn, tsOn := newTestServer(t, Config{TenantWeights: map[string]float64{"alpha": 3}})

	body := estimateBody(sampleSpec)
	_, coldOff := post(t, tsOff.Client(), tsOff.URL+"/v1/estimate", body)

	// Untenanted server with a tenant header: same bytes, header ignored,
	// request counted without a tenant label.
	req, _ := http.NewRequest(http.MethodPost, tsOff.URL+"/v1/estimate", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Lognic-Tenant", "alpha")
	resp, err := tsOff.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	headered, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(coldOff, headered) {
		t.Fatal("untenanted server must ignore the tenant header")
	}
	mresp, err := tsOff.Client().Get(tsOff.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), `lognic_serve_requests_total{code="200",endpoint="estimate"} 2`) {
		t.Fatalf("untenanted metrics must stay unlabeled:\n%s", metrics)
	}
	if strings.Contains(string(metrics), `tenant=`) {
		t.Fatal("untenanted metrics must carry no tenant labels")
	}

	// Tenancy-enabled default path: identical bytes cold, identical bytes
	// on the warm (cached) replay.
	respOn, coldOn := post(t, tsOn.Client(), tsOn.URL+"/v1/estimate", body)
	if respOn.Header.Get("X-Cache") != "miss" || !bytes.Equal(coldOff, coldOn) {
		t.Fatal("tenanted default path must evaluate to the untenanted bytes")
	}
	warmOn, warmBody := post(t, tsOn.Client(), tsOn.URL+"/v1/estimate", body)
	if warmOn.Header.Get("X-Cache") != "hit" || !bytes.Equal(coldOff, warmBody) {
		t.Fatal("tenanted warm hit must replay the untenanted bytes")
	}
	misses := metric(t, sOn, `lognic_serve_cache_misses_total{tenant="default"}`)
	hits := metric(t, sOn, `lognic_serve_cache_hits_total{tenant="default"}`)
	if misses != 1 || hits != 1 {
		t.Fatalf("default tenant accounting: misses=%v hits=%v, want 1/1", misses, hits)
	}
	// Unknown names fold into the default bucket, not a fresh one.
	if got := sOn.tenantFor("nobody"); got != sOn.tenants[defaultTenant] {
		t.Fatalf("unknown tenant resolved to %v, want default", got)
	}
	if got := sOn.tenantFor("alpha"); got != sOn.tenants["alpha"] {
		t.Fatal("configured tenant must resolve to its own bucket")
	}
}

// Three tenants under a saturating heavy tenant: the heavy tenant sheds
// against its own queue share with 429 + Retry-After, the light and
// default tenants admit with zero drops, and cache partitions stay within
// their byte budgets. Deterministic — requests are staggered against the
// server's own counters, and evaluations block on a test hook.
func TestTenantFairnessSkewed(t *testing.T) {
	reg := obs.NewRegistry()
	s, srv := newTestServer(t, Config{
		Workers: 4, QueueDepth: 8,
		CacheEntries: 128, CacheBytes: 1 << 20,
		TenantWeights: map[string]float64{"heavy": 2, "light": 1},
		Registry:      reg,
	})
	heavy, light := s.tenants["heavy"], s.tenants["light"]
	if heavy.workerShare != 2 || heavy.queueShare != 4 || light.workerShare != 1 || light.queueShare != 2 {
		t.Fatalf("shares: heavy %d/%d light %d/%d, want 2/4 and 1/2",
			heavy.workerShare, heavy.queueShare, light.workerShare, light.queueShare)
	}

	var entered atomic.Int64
	release := make(chan struct{})
	s.testDelay = func(string) {
		entered.Add(1)
		<-release
	}

	uniqueBody := func(i int) string {
		return estimateBody(strings.Replace(sampleSpec,
			`"ingress_bw": "8Gbps"`, fmt.Sprintf(`"ingress_bw": %d`, 1_000_000_000+i*1_000_000), 1))
	}
	type outcome struct {
		code  int
		retry string
	}
	results := make(chan outcome, 16)
	do := func(tenant string, i int) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/estimate", strings.NewReader(uniqueBody(i)))
		if err != nil {
			results <- outcome{code: -1}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Lognic-Tenant", tenant)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			results <- outcome{code: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- outcome{code: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	}

	// Fill heavy's two workers, then its four queue slots, one at a time.
	go do("heavy", 0)
	waitFor(t, func() bool { return entered.Load() == 1 })
	go do("heavy", 1)
	waitFor(t, func() bool { return entered.Load() == 2 })
	for q := 1; q <= 4; q++ {
		go do("heavy", 1+q)
		qq := int64(q)
		waitFor(t, func() bool { return heavy.queued.Load() == qq })
	}

	// The 7th heavy request must shed against heavy's own share.
	go do("heavy", 6)
	shed := <-results
	if shed.code != http.StatusTooManyRequests {
		t.Fatalf("saturating tenant status %d, want 429", shed.code)
	}
	if shed.retry == "" {
		t.Fatal("tenant 429 must carry Retry-After")
	}
	rejected := func(series string) float64 { return metric(t, s, "lognic_serve_rejected_total"+series) }
	if rejected(`{tenant="heavy"}`) != 1 || rejected("") != 1 {
		t.Fatalf("rejected: heavy=%v total=%v, want 1/1", rejected(`{tenant="heavy"}`), rejected(""))
	}

	// Light and default (via an unknown name) must still admit — their
	// worker slices are reserved, not borrowed from.
	go do("light", 10)
	waitFor(t, func() bool { return entered.Load() == 3 })
	go do("unknown-name", 11)
	waitFor(t, func() bool { return entered.Load() == 4 })
	if rejected(`{tenant="light"}`) != 0 || rejected(`{tenant="default"}`) != 0 {
		t.Fatal("light/default tenants must not shed while heavy saturates")
	}

	close(release)
	for i := 0; i < 8; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("admitted request status %d, want 200", r.code)
		}
	}

	// Cache partitions: every tenant within its byte budget, and the
	// budgets visible via labeled gauges.
	for name := range s.tenants {
		label := fmt.Sprintf(`{tenant=%q}`, name)
		budget := metric(t, s, "lognic_serve_cache_partition_budget_bytes"+label)
		used := metric(t, s, "lognic_serve_cache_partition_bytes"+label)
		if budget <= 0 {
			t.Fatalf("tenant %s has no partition budget", name)
		}
		if used > budget {
			t.Fatalf("tenant %s partition %v bytes exceeds budget %v", name, used, budget)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	for _, want := range []string{
		`lognic_serve_rejected_total{tenant="heavy"} 1`,
		`lognic_serve_cache_partition_bytes{tenant="light"}`,
		`lognic_serve_cache_partition_budget_bytes{tenant="default"}`,
		`lognic_serve_requests_total{code="200",endpoint="estimate",tenant="light"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// /v1/slo grows one row per tenant.
	resp, err := srv.Client().Get(srv.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	var slo struct {
		Verdict string `json:"verdict"`
		Tenants map[string]struct {
			Weight     float64 `json:"weight"`
			Workers    int     `json:"workers"`
			QueueDepth int     `json:"queue_depth"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, name := range []string{"default", "heavy", "light"} {
		row, ok := slo.Tenants[name]
		if !ok {
			t.Fatalf("/v1/slo missing tenant %q: %+v", name, slo)
		}
		if row.Workers < 1 || row.QueueDepth < 1 || row.Weight <= 0 {
			t.Fatalf("/v1/slo tenant %q row implausible: %+v", name, row)
		}
	}
}

// Snapshots round-trip partition-faithfully: a tenanted snapshot restores
// each entry into the partition it came from, an untenanted server's
// snapshot lands in the default partition, an untenanted replica
// flattens everything, and entries for unconfigured tenants are skipped.
func TestTenantSnapshotRoundTrip(t *testing.T) {
	tenanted := Config{
		CacheEntries: 64, CacheBytes: 1 << 20,
		TenantWeights:    map[string]float64{"alpha": 1, "beta": 1},
		TenantCacheSpill: 0.25,
	}
	a, tsA := newTestServer(t, tenanted)

	bodies := map[string]string{}
	for i, tenant := range []string{"alpha", "beta", ""} {
		body := estimateBody(strings.Replace(sampleSpec,
			`"ingress_bw": "8Gbps"`, fmt.Sprintf(`"ingress_bw": %d`, 2_000_000_000+i*1_000_000), 1))
		bodies[tenant] = body
		req, _ := http.NewRequest(http.MethodPost, tsA.URL+"/v1/estimate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Lognic-Tenant", tenant)
		}
		resp, err := tsA.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed request for %q: status %d", tenant, resp.StatusCode)
		}
	}
	// One oversized-entry stand-in parked directly in the spillover pool.
	a.spill.Put("spillkey", []byte(`{"spill":true}`))

	snapResp, err := tsA.Client().Get(tsA.URL + "/v1/cache/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()
	path := filepath.Join(t.TempDir(), "snap.v2")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}

	// Same-config replica: every entry back in its own partition, and the
	// warm hit replays A's bytes.
	b, tsB := newTestServer(t, tenanted)
	n, nbytes, err := b.WarmCache(path)
	if err != nil || n != 4 || nbytes <= 0 {
		t.Fatalf("warm = %d entries %d bytes, %v; want 4 entries", n, nbytes, err)
	}
	if b.tenants["alpha"].cache.Len() != 1 || b.tenants["beta"].cache.Len() != 1 ||
		b.tenants[defaultTenant].cache.Len() != 1 || b.spill.Len() != 1 {
		t.Fatalf("partitions after warm: alpha=%d beta=%d default=%d spill=%d, want 1 each",
			b.tenants["alpha"].cache.Len(), b.tenants["beta"].cache.Len(),
			b.tenants[defaultTenant].cache.Len(), b.spill.Len())
	}
	req, _ := http.NewRequest(http.MethodPost, tsB.URL+"/v1/estimate", strings.NewReader(bodies["alpha"]))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Lognic-Tenant", "alpha")
	resp, err := tsB.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("alpha's warmed entry should hit in alpha's partition")
	}
	// Byte identity against the donor: re-request on A (a hit) and compare.
	reqA, _ := http.NewRequest(http.MethodPost, tsA.URL+"/v1/estimate", strings.NewReader(bodies["alpha"]))
	reqA.Header.Set("Content-Type", "application/json")
	reqA.Header.Set("X-Lognic-Tenant", "alpha")
	respA, err := tsA.Client().Do(reqA)
	if err != nil {
		t.Fatal(err)
	}
	donor, _ := io.ReadAll(respA.Body)
	respA.Body.Close()
	if !bytes.Equal(warm, donor) {
		t.Fatal("warmed hit bytes differ from the donor's")
	}
	// Partition faithfulness: beta never saw alpha's spec, so the same
	// body under beta's name is a miss.
	reqBeta, _ := http.NewRequest(http.MethodPost, tsB.URL+"/v1/estimate", strings.NewReader(bodies["alpha"]))
	reqBeta.Header.Set("Content-Type", "application/json")
	reqBeta.Header.Set("X-Lognic-Tenant", "beta")
	respBeta, err := tsB.Client().Do(reqBeta)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respBeta.Body)
	respBeta.Body.Close()
	if respBeta.Header.Get("X-Cache") != "miss" {
		t.Fatal("alpha's warmed entry must not leak into beta's partition")
	}

	// Untenanted replica flattens all sections into its single cache.
	c, tsC := newTestServer(t, Config{CacheEntries: 64})
	if n, _, err := c.WarmCache(path); err != nil || n != 4 {
		t.Fatalf("flatten warm = %d, %v; want 4", n, err)
	}
	if c.tenants[defaultTenant].cache.Len() != 4 {
		t.Fatalf("flattened cache has %d entries, want 4", c.tenants[defaultTenant].cache.Len())
	}
	respC, _ := post(t, tsC.Client(), tsC.URL+"/v1/estimate", bodies["beta"])
	if respC.Header.Get("X-Cache") != "hit" {
		t.Fatal("flattened replica should hit on any section's entry")
	}

	// A replica that doesn't configure beta (or spill) skips those
	// sections rather than guessing a partition.
	noBeta, _ := newTestServer(t, Config{
		CacheEntries: 64, CacheBytes: 1 << 20,
		TenantWeights: map[string]float64{"alpha": 1},
	})
	if n, _, err := noBeta.WarmCache(path); err != nil || n != 2 {
		t.Fatalf("skip warm = %d, %v; want 2 (alpha + default)", n, err)
	}

	// An untenanted server's snapshot lands in the default partition.
	_, tsD := newTestServer(t, Config{CacheEntries: 64})
	post(t, tsD.Client(), tsD.URL+"/v1/estimate", bodies[""])
	plainResp, err := tsD.Client().Get(tsD.URL + "/v1/cache/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := io.ReadAll(plainResp.Body)
	plainResp.Body.Close()
	// Both streams open with the magic frame (past its 8-byte header).
	if !bytes.HasPrefix(snap[8:], []byte(snapshotMagic)) || !bytes.HasPrefix(plain[8:], []byte(snapshotMagic)) {
		t.Fatal("tenanted and untenanted servers must emit the one snapshot format")
	}
	plainPath := filepath.Join(t.TempDir(), "snap.untenanted")
	if err := os.WriteFile(plainPath, plain, 0o644); err != nil {
		t.Fatal(err)
	}
	e, _ := newTestServer(t, tenanted)
	if n, _, err := e.WarmCache(plainPath); err != nil || n != 1 {
		t.Fatalf("untenanted warm = %d, %v; want 1", n, err)
	}
	if e.tenants[defaultTenant].cache.Len() != 1 || e.tenants["alpha"].cache.Len() != 0 {
		t.Fatal("untenanted entries must land in the default partition only")
	}
}

// Acceptance: two tenants at 10:1 offered load against a saturated pool.
// The light tenant's error rate and p99 must stay within 20% of its solo
// (no heavy tenant) values — the reserved shares, not luck, must carry it.
// The light tenant completes about a dozen requests a second, so one
// short run's p99 is its slowest request; solo and shared runs alternate
// over several rounds and the medians of the per-round p99s are compared,
// so one scheduler hiccup cannot decide the verdict.
func TestTenantSkewAcceptance(t *testing.T) {
	const (
		evalSleep = 80 * time.Millisecond
		rounds    = 5
		phase     = time.Second
	)
	newSaturableReplica := func() string {
		s, srv := newTestServer(t, Config{
			Workers: 3, QueueDepth: 4, CacheEntries: -1,
			TenantWeights: map[string]float64{"heavy": 10, "light": 1},
		})
		// heavy gets 2 workers + 3 queue slots, light 1 + 1 — verify so the
		// load numbers below stay meaningful if defaults shift.
		if s.tenants["heavy"].workerShare != 2 || s.tenants["light"].workerShare != 1 {
			t.Fatalf("worker shares heavy=%d light=%d, want 2/1",
				s.tenants["heavy"].workerShare, s.tenants["light"].workerShare)
		}
		s.testDelay = func(string) { time.Sleep(evalSleep) }
		return srv.URL
	}
	items, err := storm.BuildCorpus(storm.CorpusConfig{Endpoint: "estimate", Unique: 16})
	if err != nil {
		t.Fatal(err)
	}
	soloURL, sharedURL := newSaturableReplica(), newSaturableReplica()

	var soloP99s, sharedP99s []float64
	for r := 0; r < rounds; r++ {
		// Solo baseline: the light tenant alone, one closed-loop worker.
		solo, err := storm.Run(context.Background(), storm.Config{
			Targets: []string{soloURL},
			Workers: 1, Duration: phase, Corpus: items,
			Tenants: []storm.TenantLoad{{Name: "light", Weight: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}

		// Shared run: heavy offers 10× light's concurrency against the same
		// shape of replica, far past heavy's 2-worker/3-queue share.
		shared, err := storm.Run(context.Background(), storm.Config{
			Targets: []string{sharedURL},
			Workers: 11, Duration: phase, Corpus: items,
			Tenants: []storm.TenantLoad{
				{Name: "heavy", Weight: 10},
				{Name: "light", Weight: 1},
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		soloLight, sharedLight := solo.Tenants["light"], shared.Tenants["light"]
		heavy := shared.Tenants["heavy"]
		if soloLight == nil || sharedLight == nil || heavy == nil {
			t.Fatalf("round %d: missing tenant rows: solo=%+v shared=%+v", r, solo.Tenants, shared.Tenants)
		}
		if soloLight.Completed == 0 || sharedLight.Completed == 0 {
			t.Fatalf("round %d: light did no work: solo=%d shared=%d", r, soloLight.Completed, sharedLight.Completed)
		}

		// The saturating tenant is shed — against its own budget, always
		// with a retry hint.
		if heavy.Shed == 0 {
			t.Fatalf("round %d: heavy at 10 concurrency over a 2+3 share must shed: %+v", r, heavy)
		}
		if heavy.ShedMissingRetryAfter != 0 {
			t.Fatalf("round %d: %d heavy 429s arrived without Retry-After", r, heavy.ShedMissingRetryAfter)
		}

		// The light tenant is untouched: zero shed, zero errors (solo error
		// rate is zero, so within-20% means zero).
		if sharedLight.Shed != 0 || sharedLight.Dropped != 0 {
			t.Fatalf("round %d: light tenant shed under heavy load: %+v", r, sharedLight)
		}
		if n := sharedLight.Errors4xx + sharedLight.Errors5xx + sharedLight.NetErrors; n != 0 {
			t.Fatalf("round %d: light tenant saw %d errors under heavy load", r, n)
		}
		soloP99 := soloLight.Latency["estimate"].P99Ms
		sharedP99 := sharedLight.Latency["estimate"].P99Ms
		if soloP99 <= 0 || sharedP99 <= 0 {
			t.Fatalf("round %d: p99 missing: solo=%v shared=%v", r, soloP99, sharedP99)
		}
		soloP99s = append(soloP99s, soloP99)
		sharedP99s = append(sharedP99s, sharedP99)
	}

	// And its p99 stays within 20% of solo.
	soloP99, sharedP99 := median(soloP99s), median(sharedP99s)
	if sharedP99 > soloP99*1.20 {
		t.Fatalf("light p99 degraded past 20%%: median solo %.1fms, shared %.1fms (rounds: solo %.1f, shared %.1f)",
			soloP99, sharedP99, soloP99s, sharedP99s)
	}
}

// median returns the middle value of an odd-length sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}
