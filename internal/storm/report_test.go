package storm

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"lognic/internal/obs/slo"
)

// synthWorker is one worker's synthetic outcome: its counters plus the
// latency samples (seconds) of its completed requests, by endpoint.
type synthWorker struct {
	evals, shed, e4xx, e5xx, netErr, hits, misses, slow, traced, shedNoRetry uint64
	lat                                                                      map[string][]float64
}

// latencies returns n deterministic, irregular samples around base, so
// summing them in a different order would change mean_ms in its last bits.
func latencies(base float64, seed, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + 0.37*math.Sin(float64(seed*131+i)) + math.Sqrt(float64(i+seed))/7)
	}
	return out
}

type reportCase struct {
	name    string
	cfg     Config
	workers []synthWorker
	dropped []uint64 // per tenant (one entry for an untenanted step)
}

var sloOn = slo.Config{AvailabilityTarget: 0.999, LatencyTarget: 0.99, LatencyThreshold: 5 * time.Millisecond}

func reportCases() []reportCase {
	return []reportCase{
		{
			name: "untenanted-closed-slo",
			cfg:  Config{Workers: 3, SLO: sloOn},
			workers: []synthWorker{
				{evals: 37, hits: 30, misses: 7, slow: 2, traced: 4, lat: map[string][]float64{
					"estimate": latencies(0.0011, 1, 30), "optimize": latencies(0.0042, 2, 7)}},
				{evals: 29, shed: 3, e5xx: 1, hits: 20, misses: 1, slow: 1, lat: map[string][]float64{
					"estimate": latencies(0.0013, 3, 19), "optimize": latencies(0.0039, 4, 2)}},
				{evals: 12, e4xx: 2, netErr: 1, hits: 12, lat: map[string][]float64{
					"estimate": latencies(0.0009, 5, 12)}},
			},
			dropped: []uint64{0},
		},
		{
			name: "untenanted-open-drops",
			cfg:  Config{Workers: 2, Rate: 250},
			workers: []synthWorker{
				{evals: 40, shed: 9, shedNoRetry: 2, hits: 5, misses: 35, lat: map[string][]float64{
					"simulate": latencies(0.0173, 6, 40)}},
				{evals: 38, shed: 11, e5xx: 2, misses: 38, lat: map[string][]float64{
					"simulate": latencies(0.0161, 7, 38)}},
			},
			dropped: []uint64{23},
		},
		{
			name: "tenants-3to1-open",
			cfg: Config{Workers: 4, Rate: 400, SLO: sloOn,
				Tenants: []TenantLoad{{Name: "light", Weight: 1}, {Name: "heavy", Weight: 3}}},
			workers: []synthWorker{
				{evals: 33, shed: 1, hits: 30, misses: 3, traced: 1, lat: map[string][]float64{
					"estimate": latencies(0.0012, 11, 33)}},
				{evals: 50, shed: 14, shedNoRetry: 1, hits: 45, misses: 5, slow: 3, traced: 2, lat: map[string][]float64{
					"estimate": latencies(0.0021, 8, 50)}},
				{evals: 47, shed: 16, hits: 40, misses: 7, slow: 4, lat: map[string][]float64{
					"estimate": latencies(0.0023, 9, 47)}},
				{evals: 49, shed: 12, e5xx: 1, hits: 44, misses: 5, slow: 2, lat: map[string][]float64{
					"estimate": latencies(0.0019, 10, 49)}},
			},
			dropped: []uint64{2, 31},
		},
		{
			name: "tenant-zero-completions",
			cfg: Config{Workers: 2, SLO: sloOn,
				Tenants: []TenantLoad{{Name: "busy", Weight: 1}, {Name: "starved", Weight: 1}}},
			workers: []synthWorker{
				{evals: 21, hits: 18, misses: 3, lat: map[string][]float64{
					"estimate": latencies(0.0015, 12, 21)}},
				{shed: 17, shedNoRetry: 17},
			},
			dropped: []uint64{0, 0},
		},
		{
			// The one-worker minimum gives 3 workers at 100:1:1 four
			// shares (2+1+1); every one runs and reports.
			name: "tenants-min-share-oversubscribed",
			cfg: Config{Workers: 3, Rate: 300,
				Tenants: []TenantLoad{{Name: "bulk", Weight: 100}, {Name: "probe-a", Weight: 1}, {Name: "probe-b", Weight: 1}}},
			workers: []synthWorker{
				{evals: 44, shed: 6, hits: 40, misses: 4, lat: map[string][]float64{
					"estimate": latencies(0.0017, 13, 44)}},
				{evals: 41, shed: 8, hits: 36, misses: 5, lat: map[string][]float64{
					"estimate": latencies(0.0018, 14, 41)}},
				{evals: 3, hits: 2, misses: 1, lat: map[string][]float64{
					"estimate": latencies(0.0011, 15, 3)}},
				{evals: 2, e5xx: 1, hits: 2, lat: map[string][]float64{
					"estimate": latencies(0.0012, 16, 2)}},
			},
			dropped: []uint64{17, 0, 1},
		},
	}
}

// The step report and its tenant rows, built from fixed per-worker
// tallies, must match the recorded bytes: field names and order,
// omitempty, shed rates, SLO grades and the bits of every mean.
func TestReportGolden(t *testing.T) {
	const elapsed = 2500 * time.Millisecond
	out := map[string]*Report{}
	for _, c := range reportCases() {
		c.cfg.Targets = []string{"http://x"}
		c.cfg.Corpus = []Item{{Endpoint: "estimate"}}
		cfg, workers, err := c.cfg.plan()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Workers != len(c.workers) {
			t.Fatalf("%s: plan runs %d workers, case has %d", c.name, cfg.Workers, len(c.workers))
		}
		stats := make([]*tally, len(c.workers))
		for i, w := range c.workers {
			st := newTally()
			st.evals, st.shed, st.e4xx, st.e5xx, st.netErr = w.evals, w.shed, w.e4xx, w.e5xx, w.netErr
			st.hits, st.misses, st.slow, st.traced, st.shedNoRetry = w.hits, w.misses, w.slow, w.traced, w.shedNoRetry
			for ep, lats := range w.lat {
				h := &hist{}
				for _, l := range lats {
					h.observe(l)
				}
				st.hists[ep] = h
				st.completed += uint64(len(lats))
			}
			stats[i] = st
		}
		out[c.name] = buildReport(cfg, stats, workers, c.dropped, elapsed)
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/report_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("report JSON drifted from testdata/report_golden.json:\n%s", got)
	}
}

// An untenanted run is one unnamed tenant: no request names a tenant and
// the report has no tenant rows, in memory or in JSON.
func TestUntenantedRunSendsNoTenant(t *testing.T) {
	var mu sync.Mutex
	var requests, tenanted int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		if r.Header.Get("X-Lognic-Tenant") != "" || r.Header.Get("X-Tenant") != "" {
			tenanted++
		}
		mu.Unlock()
		w.Write([]byte("{}\n"))
	}))
	t.Cleanup(stub.Close)
	items := corpus(t, CorpusConfig{Endpoint: "estimate", Unique: 2})
	for _, rate := range []float64{0, 200} {
		rep, err := Run(context.Background(), Config{
			Targets:  []string{stub.URL},
			Workers:  2,
			Duration: 150 * time.Millisecond,
			Rate:     rate,
			Corpus:   items,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed == 0 {
			t.Fatalf("rate %v: no requests completed", rate)
		}
		if rep.Tenants != nil {
			t.Fatalf("rate %v: untenanted run grew tenant rows: %+v", rate, rep.Tenants)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var decoded map[string]any
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		if _, ok := decoded["tenants"]; ok {
			t.Fatalf("rate %v: JSON report has a tenants key: %s", rate, raw)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if requests == 0 || tenanted != 0 {
		t.Fatalf("%d of %d requests carried a tenant header", tenanted, requests)
	}
}

// Three workers at 10:1:1 apportion to 2+1+1: the run must start all
// four, so every tenant sends its header and completes work, in a closed
// and an open loop alike.
func TestOversubscribedTenantsAllRun(t *testing.T) {
	var mu sync.Mutex
	headerCounts := map[string]int{}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headerCounts[r.Header.Get("X-Lognic-Tenant")]++
		mu.Unlock()
		w.Write([]byte("{}\n"))
	}))
	t.Cleanup(stub.Close)
	items := corpus(t, CorpusConfig{Endpoint: "estimate", Unique: 3})
	tenants := []TenantLoad{{Name: "bulk", Weight: 10}, {Name: "probe-a", Weight: 1}, {Name: "probe-b", Weight: 1}}
	want := map[string]int{"bulk": 2, "probe-a": 1, "probe-b": 1}
	for _, rate := range []float64{0, 600} {
		mu.Lock()
		clear(headerCounts)
		mu.Unlock()
		rep, err := Run(context.Background(), Config{
			Targets:  []string{stub.URL},
			Workers:  3,
			Duration: 200 * time.Millisecond,
			Rate:     rate,
			Corpus:   items,
			Tenants:  tenants,
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for name, n := range want {
			if headerCounts[name] == 0 {
				t.Fatalf("rate %v: tenant %q sent no request: %v", rate, name, headerCounts)
			}
			row := rep.Tenants[name]
			if row == nil || row.Workers != n || row.Completed == 0 {
				t.Fatalf("rate %v: tenant %q row %+v, want %d workers and completions", rate, name, row, n)
			}
		}
		mu.Unlock()
	}
}
