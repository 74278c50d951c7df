package serve

// Request-level observability surface: the per-request trace-context
// derivation, the scrape-time series behind /metrics, the SLO judgement
// endpoint (GET /v1/slo) and the merged span export (GET /v1/trace). The
// underlying machinery — the metrics registry, W3C trace context, the
// burn-rate monitor, the span ring — lives in internal/obs.

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"lognic/internal/obs"
)

// requestTrace derives the server-side trace context for one request: a
// child of the client's traceparent when the header parses, a freshly
// minted root otherwise. parentSpan is the client's span id ("" for
// roots).
func (s *Server) requestTrace(r *http.Request) (tc obs.TraceContext, parentSpan string) {
	if parent, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
		return parent.Child(), parent.SpanID
	}
	return obs.NewTraceContext(), ""
}

// registerMetrics registers the lognic_serve_* series that read the
// server's own state when /metrics is scraped: the tenants' tallies,
// worker slots and queues, and the cache partitions' occupancy. Nothing
// on the request path pushes a value, so no series can go stale. Each
// unlabeled series sums the tenant table or the partitions; a tenanted
// server also exports every tenant's and partition's own.
func (s *Server) registerMetrics(reg *obs.Registry) {
	sum := func(read func(*tenant) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for _, t := range s.tenants {
				n += read(t)
			}
			return float64(n)
		}
	}
	occupancy := func(read func(*lruCache) int64) func() float64 {
		return func() float64 {
			var n int64
			for _, p := range s.partitions {
				n += read(p.cache)
			}
			return float64(n)
		}
	}
	hits := sum(func(t *tenant) uint64 { return t.hits.Load() })
	misses := sum(func(t *tenant) uint64 { return t.misses.Load() })
	reg.CounterFunc("lognic_serve_cache_hits_total", "result cache hits", nil, hits)
	reg.CounterFunc("lognic_serve_cache_l1_hits_total", "hits served from the exact-body L1 index, skipping request parsing", nil,
		sum(func(t *tenant) uint64 { return t.l1Hits.Load() }))
	reg.CounterFunc("lognic_serve_cache_misses_total", "result cache misses", nil, misses)
	reg.CounterFunc("lognic_serve_rejected_total", "requests shed with 429", nil,
		sum(func(t *tenant) uint64 { return t.rejected.Load() }))
	reg.GaugeFunc("lognic_serve_cache_entries", "result cache occupancy", nil, occupancy(func(c *lruCache) int64 { return int64(c.Len()) }))
	reg.GaugeFunc("lognic_serve_cache_bytes", "result cache body bytes", nil, occupancy((*lruCache).Bytes))
	reg.GaugeFunc("lognic_serve_cache_hit_ratio", "hits / (hits+misses)", nil, func() float64 {
		if h, m := hits(), misses(); h+m > 0 {
			return h / (h + m)
		}
		return 0
	})
	reg.GaugeFunc("lognic_serve_inflight", "evaluations running", nil,
		sum(func(t *tenant) uint64 { return uint64(len(t.sem)) }))
	reg.GaugeFunc("lognic_serve_queue_depth", "requests waiting for a worker", nil,
		func() float64 { return float64(s.queued.Load()) })
	if !s.tenanted() {
		return
	}
	count := func(n *atomic.Uint64) func() float64 { return func() float64 { return float64(n.Load()) } }
	for name, t := range s.tenants {
		labels := obs.Labels{"tenant": name}
		reg.CounterFunc("lognic_serve_cache_hits_total", "result cache hits", labels, count(&t.hits))
		reg.CounterFunc("lognic_serve_cache_misses_total", "result cache misses", labels, count(&t.misses))
		reg.CounterFunc("lognic_serve_rejected_total", "requests shed with 429", labels, count(&t.rejected))
		reg.GaugeFunc("lognic_serve_inflight", "evaluations running", labels,
			func() float64 { return float64(len(t.sem)) })
		reg.GaugeFunc("lognic_serve_queue_depth", "requests waiting for a worker", labels,
			func() float64 { return float64(t.queued.Load()) })
	}
	for _, p := range s.partitions {
		labels := obs.Labels{"tenant": p.name}
		reg.GaugeFunc("lognic_serve_cache_partition_bytes", "per-tenant cache partition occupancy in bytes", labels,
			func() float64 { return float64(p.cache.Bytes()) })
		reg.GaugeFunc("lognic_serve_cache_partition_entries", "per-tenant cache partition occupancy in entries", labels,
			func() float64 { return float64(p.cache.Len()) })
		reg.GaugeFunc("lognic_serve_cache_partition_budget_bytes", "per-tenant cache partition byte budget (0 = unbounded)", labels,
			func() float64 { return float64(p.budget) })
	}
}

// handleSLO serves the monitor's current judgement — plus one row per
// tenant on a tenanted server. A poll is forced at most once a second
// so the response reflects requests that finished after the last
// background sample, without letting a hammering client grow the sample
// rings.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	now := time.Now().UnixNano()
	last := s.sloPolled.Load()
	if now-last >= int64(time.Second) && s.sloPolled.CompareAndSwap(last, now) {
		s.slo.Poll()
		for _, t := range s.tenants {
			t.slo.Poll()
		}
	}
	st := s.slo.Status()
	if !s.tenanted() {
		writeJSON(w, http.StatusOK, st)
		return
	}
	out := sloReport{Status: st, Tenants: make(map[string]tenantSLO, len(s.tenants))}
	for name, t := range s.tenants {
		out.Tenants[name] = tenantSLO{
			Weight:     t.weight,
			Workers:    t.workerShare,
			QueueDepth: t.queueShare,
			CacheBytes: t.budget,
			Status:     t.slo.Status(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTrace exports the retained span ring as Chrome trace_event JSON
// — one file Perfetto loads directly, with request, job and simulation
// spans carrying their W3C trace identity in args so a client-side
// export (lognic-storm's) merges into the same tree.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Tracer == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: tracing disabled (start with -trace-spans)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.cfg.Tracer.WriteChromeTrace(w, "lognic-serve")
}
