package serve

// Request-level observability surface: the per-request trace-context
// derivation, the SLO judgement endpoint (GET /v1/slo) and the merged
// span export (GET /v1/trace). The underlying machinery — W3C trace
// context, the burn-rate monitor, the span ring — lives in internal/obs.

import (
	"fmt"
	"net/http"
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
