package core

import (
	"fmt"
	"math"

	"lognic/internal/queueing"
)

// VertexTiming is the per-vertex latency decomposition the model derives
// for a given traffic profile: the Equation 11 queue parameters, the
// compute time C/A of Equation 7, and the resulting M/M/1/N queueing delay
// of Equation 12.
type VertexTiming struct {
	Name string
	// Lambda is the request arrival rate λ = BW_in·indegree/(D·g_in).
	Lambda float64
	// Mu is the request service rate μ = P_eff·indegree/(D·g_in·Σδ).
	Mu float64
	// Rho is the utilization ρ = BW_in·Σδ/P_eff.
	Rho float64
	// Compute is C/A = D·g_in·Σδ/(P_eff·indegree), seconds per request.
	Compute float64
	// Queue is Q, the mean queueing delay (seconds); zero when the vertex
	// declares no queue capacity.
	Queue float64
	// DropRate is Pro_N, the blocking probability of the vertex's queue.
	DropRate float64
}

// PathLatency is the latency of a single ingress→egress path, with its
// component breakdown (all in seconds).
type PathLatency struct {
	Vertices []string
	Weight   float64
	// Total = Queueing + Compute + Overhead + Movement.
	Total float64
	// Queueing accumulates Q_i across the path's vertices.
	Queueing float64
	// Compute accumulates C_i/A_i across the path's vertices.
	Compute float64
	// Overhead accumulates O_i across non-terminal vertices.
	Overhead float64
	// Movement accumulates g/BW across the path's edges (Equation 7).
	Movement float64
}

// LatencyReport is the result of latency modeling.
type LatencyReport struct {
	// Attainable is T_attainable: the weighted average path latency
	// (Equation 8), in seconds.
	Attainable float64
	// Paths carries each path's breakdown, heaviest weight first.
	Paths []PathLatency
	// Vertices carries per-vertex timing, keyed by vertex name.
	Vertices map[string]VertexTiming
	// DropRate is the weighted mean packet drop probability across
	// traversed queues (1 − Π(1−Pro_N) per path, weighted like latency).
	DropRate float64
}

// vertexTiming derives Equation 11's λ, μ, ρ and Equation 7's C/A for
// vertex i under this model's traffic.
//
// Note Equation 7's ÷indegree: the paper treats a vertex's in-edges as
// carrying per-edge sub-requests of one packet (each edge delivers its δ
// share of the packet's data), so per-request compute shrinks with fan-in.
// Topologies that instead *rejoin whole packets* from alternative paths
// should merge them through a zero-throughput mux vertex feeding a
// single-in-edge IP, keeping the formula's semantics intact.
//
// Relatedly, Equation 7 scales C with Σδ: an IP that sees a δ<1 slice of
// the traffic is modeled as touching δ-scaled data per request. When the
// slice instead consists of *whole packets routed to a branch* (fewer
// requests, full size each), the per-branch C and Q are understated by
// roughly the δ factor while ρ — and therefore every capacity and
// relative-comparison result — stays exact. The optimizer's split/placement
// decisions are unaffected; absolute multi-path latencies carry this
// approximation (see the cross-validation tests in internal/sim).
func (m Model) vertexTiming(i int) VertexTiming {
	g := m.Graph
	v := g.vertices[i]
	vt := VertexTiming{Name: v.Name}
	indeg := float64(len(g.topo.in[i]))
	if indeg == 0 {
		return vt // ingress engines have no upstream queue/compute here
	}
	deltaIn := g.topo.deltaIn[i]
	p := v.effectiveThroughput()
	d := float64(v.Parallelism)
	gIn := m.Traffic.Granularity
	if p > 0 && deltaIn > 0 {
		// C/A = D·g_in·Σδ / (P_eff·indegree)      (Equation 7)
		vt.Compute = d * gIn * deltaIn / (p * indeg)
		// λ = BW_in·indegree/(D·g_in); μ = 1/(C/A); ρ = BW_in·Σδ/P_eff.
		vt.Lambda = m.Traffic.IngressBW * indeg / (d * gIn)
		vt.Mu = 1 / vt.Compute
		vt.Rho = m.Traffic.IngressBW * deltaIn / p
		if v.QueueCapacity > 0 {
			switch v.QueueModel {
			case QueueMMcK:
				// Multi-server extension: Equation 7's C is the
				// per-engine service time, so the total request rate
				// λ·D feeds c = D servers of rate μ each, with room for
				// the servers plus the N-entry queue.
				q := queueing.MMcK{
					Lambda:   vt.Lambda * d,
					Mu:       vt.Mu,
					Servers:  v.Parallelism,
					Capacity: v.Parallelism + v.QueueCapacity,
				}
				vt.Queue, vt.DropRate = q.Solve()
			default:
				q := queueing.MM1N{Lambda: vt.Lambda, Mu: vt.Mu, Capacity: v.QueueCapacity}
				vt.Queue = q.QueueingDelayClosedForm()
				vt.DropRate = q.BlockingProb()
			}
		}
	}
	// Rate limiters (Extension #3) are handled by the branch above: their
	// drain rate is encoded as Throughput even though they perform no
	// computation, so their finite queue models the downstream IP's
	// idleness. A limiter without a rate contributes nothing.
	return vt
}

// Latency evaluates Equations 5–8: per-path accumulation of queueing,
// compute, overhead and data-movement components, weighted across paths by
// the traffic partition.
func (m Model) Latency() (LatencyReport, error) {
	if err := m.Validate(); err != nil {
		return LatencyReport{}, err
	}
	g := m.Graph
	paths, err := g.topo.allPaths()
	if err != nil {
		return LatencyReport{}, err
	}
	if len(paths) == 0 {
		return LatencyReport{}, fmt.Errorf("core: graph %q has no ingress→egress path", g.Name())
	}
	timings := make([]VertexTiming, len(g.vertices))
	rep := LatencyReport{
		Paths:    make([]PathLatency, len(paths)),
		Vertices: make(map[string]VertexTiming, len(g.vertices)),
	}
	for i, v := range g.vertices {
		timings[i] = m.vertexTiming(i)
		rep.Vertices[v.Name] = timings[i]
	}
	// The report's path vertex lists share one slab, cut with capped
	// capacity so that appending to one path cannot overwrite the next.
	n := 0
	for _, p := range paths {
		n += len(p.vertices)
	}
	names := make([]string, 0, n)
	for k, h := range paths {
		at := len(names)
		for _, i := range h.vertices {
			names = append(names, g.topo.names[i])
		}
		pl := PathLatency{Vertices: names[at:len(names):len(names)], Weight: h.weight}
		deliver := 1.0
		for j, i := range h.vertices {
			vt := timings[i]
			pl.Queueing += vt.Queue
			pl.Compute += vt.Compute
			deliver *= 1 - vt.DropRate
			if j+1 < len(h.vertices) {
				// O_i is paid when transferring computation onward; the
				// last vertex only queues and computes (Equation 6).
				pl.Overhead += g.vertices[i].Overhead
				pl.Movement += g.topo.edges[h.edges[j]].moveTimePerPacket(m.Traffic.Granularity, m.Hardware)
			}
		}
		pl.Total = pl.Queueing + pl.Compute + pl.Overhead + pl.Movement
		rep.Paths[k] = pl
		rep.Attainable += h.weight * pl.Total
		rep.DropRate += h.weight * (1 - deliver)
	}
	return rep, nil
}

// Estimate bundles throughput and latency for one model evaluation — the
// two outputs of Table 2.
type Estimate struct {
	Throughput ThroughputReport
	Latency    LatencyReport
}

// Estimate runs both analyses.
func (m Model) Estimate() (Estimate, error) {
	tr, err := m.Throughput()
	if err != nil {
		return Estimate{}, err
	}
	lr, err := m.Latency()
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Throughput: tr, Latency: lr}, nil
}

// StableLoad reports whether every queued vertex operates below saturation
// (ρ < 1) at the model's offered load; above it the finite queues drop
// traffic and the latency estimate describes the surviving packets.
func (m Model) StableLoad() (bool, error) {
	if err := m.Validate(); err != nil {
		return false, err
	}
	for i, v := range m.Graph.vertices {
		vt := m.vertexTiming(i)
		if vt.Rho >= 1 && v.QueueCapacity > 0 {
			return false, nil
		}
	}
	return true, nil
}

// LoadAtUtilization returns the ingress bandwidth that drives the graph's
// tightest compute constraint to the given utilization (e.g. 0.8 for the
// paper's "80% traffic load" experiments).
func (m Model) LoadAtUtilization(u float64) (float64, error) {
	if u <= 0 || !finite(u) {
		return 0, fmt.Errorf("core: invalid utilization %v", u)
	}
	sat, err := m.SaturationThroughput()
	if err != nil {
		return 0, err
	}
	if math.IsInf(sat.Attainable, 1) {
		return 0, fmt.Errorf("core: graph %q has no finite capacity constraint", m.Graph.Name())
	}
	return u * sat.Attainable, nil
}
