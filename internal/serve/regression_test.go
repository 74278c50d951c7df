package serve

// Regression tests for three accounting bugs in the cache/admission path:
// a stale L1 index entry surviving its canonical eviction, the queue-depth
// gauge not being refreshed on the shed path, and miss counters ticking on
// a server whose cache is disabled.

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"lognic/internal/obs"
)

// A stale L1 entry — one whose canonical key has left the cache — must be
// pruned on the fall-through, not left pinning its whole request body in
// the L1 byte budget forever.
func TestL1StalePrunedOnCanonicalMiss(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Plant a stale index entry by hand: its canonical key was never
	// cached, exactly the state a canonical eviction leaves behind. The
	// request body is malformed on purpose so the fall-through path stops
	// at prepare (400) and nothing re-creates the entry.
	badBody := `{"spec": nope`
	l1key := "estimate\x00" + badBody
	s.tenants[defaultTenant].l1.Put(l1key, []byte("0000000000000000000000000000000000000000000000000000000000000000"))
	before := s.tenants[defaultTenant].l1.Bytes()
	if before == 0 {
		t.Fatal("planted L1 entry not accounted")
	}

	resp, _ := post(t, ts.Client(), ts.URL+"/v1/estimate", badBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if _, ok := s.tenants[defaultTenant].l1.Get(l1key); ok {
		t.Fatal("stale L1 entry must be pruned when its canonical key misses")
	}
	if after := s.tenants[defaultTenant].l1.Bytes(); after >= before {
		t.Fatalf("L1 bytes %d did not shrink below %d after the prune", after, before)
	}
	if hits := metric(t, s, "lognic_serve_cache_hits_total"); hits != 0 {
		t.Fatalf("a stale L1 probe must not count as a hit (hits=%v)", hits)
	}
}

// Under sustained saturation every request takes the shed branch, so the
// shed path itself must refresh the queue-depth gauge — a scrape during
// overload has to show the real backlog.
func TestShedPathRefreshesQueueDepthGauge(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, CacheEntries: -1, Registry: reg,
	})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testDelay = func(string) {
		entered <- struct{}{}
		<-release
	}

	results := make(chan int, 8)
	do := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json",
			strings.NewReader(estimateBody(sampleSpec)))
		if err != nil {
			results <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- resp.StatusCode
	}

	// Occupy the worker, then both queue slots, one request at a time.
	go do()
	<-entered
	go do()
	waitFor(t, func() bool { return s.queued.Load() == 1 })
	go do()
	waitFor(t, func() bool { return s.queued.Load() == 2 })

	// Shed a request, then scrape: the gauge must read the live backlog.
	go do()
	if code := <-results; code != http.StatusTooManyRequests {
		t.Fatalf("fourth request status %d, want 429", code)
	}
	if got := metric(t, s, "lognic_serve_queue_depth"); got != 2 {
		t.Fatalf("queue gauge = %v after a shed, want 2", got)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "lognic_serve_queue_depth 2") {
		t.Fatalf("metrics under full queue missing queue_depth 2:\n%s", metrics)
	}

	close(release)
	for i := 0; i < 3; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted request status %d, want 200", code)
		}
	}
}

// A server with caching disabled must report no cache traffic at all —
// no miss counts, no hit ratio — not a stream of phantom misses against
// a cache that isn't there.
func TestCacheDisabledNoMissAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{CacheEntries: -1, Registry: reg})
	for i := 0; i < 3; i++ {
		resp, _ := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("status %d cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
		}
	}
	hits, misses := metric(t, s, "lognic_serve_cache_hits_total"), metric(t, s, "lognic_serve_cache_misses_total")
	if hits != 0 || misses != 0 {
		t.Fatalf("disabled cache counted traffic: hits=%v misses=%v", hits, misses)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"lognic_serve_cache_misses_total 0",
		"lognic_serve_cache_hit_ratio 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
