package sim

// Observability wiring: packet-span emission and metric registration.
// Everything here is gated on Config.Spans / Config.Metrics being set.
// Span arguments are passed as scalars and the span's args map is built
// only after the Spans nil check, and transfer-span names are precomputed
// in New, so a run without Spans allocates nothing per event (pinned by
// TestSteadyStateAllocFree; BenchmarkTracingDisabled at the repo root
// budgets its time). Metrics, when set, cost a few locked counter and
// histogram updates per packet, resolved to handles in New. Spans and
// metrics observe the run — they never consume simulator randomness or
// alter event order, so instrumented and bare runs produce identical
// Results for equal seeds.

import (
	"lognic/internal/obs"
)

// simMetrics holds the resolved metric handles one run reports into.
// Handles are resolved once in New, so the hot path never touches the
// registry's maps. Counters cover the whole run (including warmup):
// metrics are operational telemetry, unlike Result's measurement-window
// statistics.
type simMetrics struct {
	offered   *obs.Counter
	delivered *obs.Counter
	latency   *obs.Histogram
	events    *obs.Counter
	retries   *obs.Counter
}

// latencyBuckets spans 1µs..±16s geometrically — wide enough for every
// catalog in the repo.
func latencyBuckets() []float64 { return obs.ExpBuckets(1e-6, 4, 13) }

// initObs registers this run's metric families and resolves per-vertex
// handles. Registration is get-or-create, so concurrent replications of a
// sweep sharing one registry aggregate into the same series.
func (s *Simulator) initObs() {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	s.metrics = &simMetrics{
		offered:   reg.Counter("lognic_sim_packets_offered_total", "packets injected at ingress", nil),
		delivered: reg.Counter("lognic_sim_packets_delivered_total", "packets completed at an egress engine", nil),
		latency:   reg.Histogram("lognic_sim_latency_seconds", "end-to-end packet latency", latencyBuckets(), nil),
		events:    reg.Counter("lognic_sim_events_total", "discrete events processed", nil),
		retries:   reg.Counter("lognic_sim_retries_total", "packets re-issued under a retry policy", nil),
	}
	for _, name := range s.order {
		s.nodes[name].droppedC = reg.Counter("lognic_sim_packets_dropped_total",
			"arrivals rejected by a full queue", obs.Labels{"vertex": name})
	}
}

// finishObs publishes end-of-run gauges: per-link and per-vertex
// utilization over the measurement window, and the event count.
func (s *Simulator) finishObs(res Result) {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	s.metrics.events.Add(float64(s.processed))
	for name, u := range res.Links {
		reg.Gauge("lognic_sim_link_utilization",
			"link busy fraction over the measurement window", obs.Labels{"link": name}).Set(u)
	}
	for name, vs := range res.Vertices {
		reg.Gauge("lognic_sim_vertex_utilization",
			"time-average busy-engine fraction over the measurement window",
			obs.Labels{"vertex": name}).Set(vs.Utilization)
		reg.Gauge("lognic_sim_vertex_queue_len",
			"time-average waiting requests over the measurement window",
			obs.Labels{"vertex": name}).Set(vs.MeanQueueLen)
	}
}

// span emits one span when tracing is enabled. The packet id is the
// span's track, so one packet's lifecycle renders as a single timeline
// row in Perfetto with phases nested inside vertex visits.
func (s *Simulator) span(name, cat string, p *packet, start, dur float64, args map[string]any) {
	if s.cfg.Spans == nil {
		return
	}
	s.cfg.Spans.Emit(obs.Span{
		Name: name, Cat: cat, Track: p.id, Start: start, Dur: dur, Args: args,
		TraceID: s.cfg.TraceID, ParentID: s.cfg.ParentSpanID,
	})
}

// visitEnd says how a vertex visit ended; it selects the vertex span's args.
type visitEnd uint8

const (
	visitDepart  visitEnd = iota // args: size
	visitDrop                    // args: size, drop
	visitDeliver                 // args: size, latency
)

// spanVertex closes the parent span of one vertex visit: arrival to now.
// The args map is built only when tracing is on.
func (s *Simulator) spanVertex(n *node, p *packet, end visitEnd) {
	if s.cfg.Spans == nil {
		return
	}
	args := map[string]any{"size": p.size}
	switch end {
	case visitDrop:
		args["drop"] = true
	case visitDeliver:
		args["latency"] = s.now - p.born
	}
	s.span(n.v.Name, obs.CatVertex, p, p.arrived, s.now-p.arrived, args)
}

// AttributionComponents converts the run's measured utilizations into
// per-component saturation estimates for obs.BuildReport: each component
// is extrapolated to saturate at offered/utilization — the same linear
// scaling Equation 4's min() assumes. Components that stayed idle carry
// no signal and are omitted.
func (r Result) AttributionComponents() []obs.Component {
	offered := r.OfferedRate()
	if offered <= 0 {
		return nil
	}
	var out []obs.Component
	for name, u := range r.Links {
		if u <= 0 {
			continue
		}
		kind := obs.KindEdge
		switch name {
		case "interface":
			kind = obs.KindInterface
		case "memory":
			kind = obs.KindMemory
		}
		out = append(out, obs.Component{
			Name: name, Kind: kind, Utilization: u, SaturationLoad: offered / u,
		})
	}
	for name, vs := range r.Vertices {
		if vs.Utilization <= 0 {
			continue
		}
		out = append(out, obs.Component{
			Name: name, Kind: obs.KindCompute,
			Utilization:    vs.Utilization,
			SaturationLoad: offered / vs.Utilization,
		})
	}
	return out
}

// OfferedRate is the offered ingress load over the measurement window
// (bytes/second).
func (r Result) OfferedRate() float64 {
	if r.Window <= 0 {
		return 0
	}
	return r.OfferedBytes / r.Window
}
