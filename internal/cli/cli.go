// Package cli implements the logic behind the cmd/lognic and
// cmd/lognic-sim executables: loading a JSON model spec, evaluating it
// analytically (point estimate or ingress-bandwidth sweep) or by
// simulation, and rendering the results as text or JSON. Keeping it here
// leaves the mains as thin argument parsers and makes the command paths
// testable.
package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"lognic/internal/core"
	"lognic/internal/obs"
	"lognic/internal/serve"
	"lognic/internal/sim"
	"lognic/internal/spec"
	"lognic/internal/unit"
)

// RunPoint evaluates and renders a single estimate. Its JSON is the
// /v1/estimate response body for the same spec, byte for byte.
func RunPoint(w io.Writer, m core.Model, jsonOut bool) error {
	pt, err := serve.EstimatePoint(m)
	if err != nil {
		return err
	}
	if jsonOut {
		return json.NewEncoder(w).Encode(pt)
	}
	fmt.Fprintf(w, "graph: %s\n", m.Graph.Name())
	fmt.Fprintf(w, "offered:    %s (granularity %s)\n",
		unit.Bandwidth(m.Traffic.IngressBW), unit.Size(m.Traffic.Granularity))
	fmt.Fprintf(w, "throughput: %s\n", unit.Bandwidth(pt.Throughput))
	fmt.Fprintf(w, "bottleneck: %s\n", pt.Bottleneck)
	fmt.Fprintf(w, "latency:    %s (drop rate %.4g)\n", unit.Duration(pt.Latency), pt.DropRate)
	fmt.Fprintln(w, "constraints (tightest first):")
	for _, c := range pt.Constraints {
		name := c.Name
		if name == "" {
			name = "-"
		}
		fmt.Fprintf(w, "  %-14s %-22s %s\n", c.Kind, name, unit.Bandwidth(c.Limit))
	}
	fmt.Fprintln(w, "paths (heaviest first):")
	for _, p := range pt.PathsLatency {
		fmt.Fprintf(w, "  w=%.3f %s\n", p.Weight, strings.Join(p.Vertices, " -> "))
		fmt.Fprintf(w, "         total %s = queue %s + compute %s + overhead %s + move %s\n",
			unit.Duration(p.Total), unit.Duration(p.Queueing), unit.Duration(p.Compute),
			unit.Duration(p.Overhead), unit.Duration(p.Movement))
	}
	return nil
}

// ParseSweep parses a "lo:hi:steps" ingress sweep argument with unit
// strings allowed for the endpoints.
func ParseSweep(arg string) (lo, hi float64, steps int, err error) {
	parts := strings.Split(arg, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("cli: bad sweep %q, want lo:hi:steps", arg)
	}
	loBW, err := unit.ParseBandwidth(parts[0])
	if err != nil {
		return 0, 0, 0, err
	}
	hiBW, err := unit.ParseBandwidth(parts[1])
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &steps); err != nil || steps < 2 {
		return 0, 0, 0, fmt.Errorf("cli: bad step count %q", parts[2])
	}
	if hiBW <= loBW {
		return 0, 0, 0, fmt.Errorf("cli: sweep range inverted: %v..%v", loBW, hiBW)
	}
	return float64(loBW), float64(hiBW), steps, nil
}

// RunSweep evaluates the model across an ingress-bandwidth range and
// renders one row per operating point.
func RunSweep(w io.Writer, m core.Model, arg string, jsonOut bool) error {
	lo, hi, steps, err := ParseSweep(arg)
	if err != nil {
		return err
	}
	var pts []serve.PointResult
	for i := 0; i < steps; i++ {
		bw := lo + (hi-lo)*float64(i)/float64(steps-1)
		mm := m
		mm.Traffic.IngressBW = bw
		pt, err := serve.EstimatePoint(mm)
		if err != nil {
			return err
		}
		pt.PathsLatency = nil // keep sweep output compact
		pts = append(pts, pt)
	}
	if jsonOut {
		return json.NewEncoder(w).Encode(pts)
	}
	fmt.Fprintf(w, "%-14s%-14s%-14s%-12s%s\n", "offered", "throughput", "latency", "droprate", "bottleneck")
	for _, pt := range pts {
		fmt.Fprintf(w, "%-14s%-14s%-14s%-12.4g%s\n",
			unit.Bandwidth(pt.IngressBW), unit.Bandwidth(pt.Throughput),
			unit.Duration(pt.Latency), pt.DropRate, pt.Bottleneck)
	}
	return nil
}

// SimOptions tunes RunSim.
type SimOptions struct {
	// Duration is the simulated time (seconds).
	Duration float64
	// Seed drives the randomness.
	Seed int64
	// Deterministic uses mean service times.
	Deterministic bool
	// JSON selects machine-readable output.
	JSON bool
	// MetricsOut, when non-empty, writes the run's metrics to this path in
	// the Prometheus text format after the run.
	MetricsOut string
	// TraceOut, when non-empty, attaches a span tracer and writes the
	// packet timeline to this path as Chrome trace_event JSON.
	TraceOut string
	// Registry optionally supplies the registry to record into (shared
	// with a debug server); nil with MetricsOut set creates one.
	Registry *obs.Registry
}

// RunSim simulates the model's graph under its traffic profile and renders
// measured results.
func RunSim(w io.Writer, m core.Model, opts SimOptions) error {
	reg := opts.Registry
	if reg == nil && opts.MetricsOut != "" {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if opts.TraceOut != "" {
		tracer = obs.NewTracer(0)
	}
	cfg := sim.ForModel(m)
	cfg.Seed = opts.Seed
	cfg.Duration = opts.Duration
	cfg.DeterministicService = opts.Deterministic
	cfg.Metrics = reg
	cfg.Spans = tracer
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	if opts.MetricsOut != "" {
		if err := WriteFile(opts.MetricsOut, reg.WritePrometheus); err != nil {
			return err
		}
	}
	if opts.TraceOut != "" {
		if err := WriteFile(opts.TraceOut, func(f io.Writer) error {
			return tracer.WriteChromeTrace(f, m.Graph.Name())
		}); err != nil {
			return err
		}
	}
	if opts.JSON {
		return json.NewEncoder(w).Encode(res)
	}
	fmt.Fprintf(w, "simulated:  %gs (seed %d)\n", res.SimTime, opts.Seed)
	fmt.Fprintf(w, "offered:    %s, delivered %d packets (%s)\n",
		unit.Bandwidth(m.Traffic.IngressBW), res.DeliveredPackets,
		unit.Bandwidth(res.Throughput))
	fmt.Fprintf(w, "latency:    mean %s  p50 %s  p95 %s  p99 %s\n",
		unit.Duration(res.MeanLatency), unit.Duration(res.P50),
		unit.Duration(res.P95), unit.Duration(res.P99))
	fmt.Fprintf(w, "drop rate:  %.4g\n", res.DropRate)
	fmt.Fprintln(w, "vertices:")
	names := make([]string, 0, len(res.Vertices))
	for n := range res.Vertices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		vs := res.Vertices[n]
		fmt.Fprintf(w, "  %-16s util %.3f  qlen %.2f  wait %-10s arrivals %d  drops %d\n",
			n, vs.Utilization, vs.MeanQueueLen, unit.Duration(vs.MeanWait),
			vs.Arrivals, vs.Dropped)
	}
	return nil
}

// LoadModel reads and validates a JSON spec file.
func LoadModel(path string) (core.Model, error) {
	f, err := spec.Load(path)
	if err != nil {
		return core.Model{}, err
	}
	return f.Model()
}

// MixResult is the JSON shape of a mixed-profile estimate.
type MixResult struct {
	// Throughput is the dist_size-weighted attainable rate (bytes/second).
	Throughput float64 `json:"throughput"`
	// Latency is the dist_size-weighted average latency (seconds).
	Latency float64 `json:"latency"`
	// Components holds each slice's point estimate, in spec order.
	Components []serve.PointResult `json:"components"`
}

// RunMix evaluates a spec file's traffic mix (Extension #2: one model per
// packet size, combined by dist_size weight) and renders the result.
func RunMix(w io.Writer, f spec.File, jsonOut bool) error {
	comps, err := f.MixComponents()
	if err != nil {
		return err
	}
	mix, err := core.EstimateMix(comps)
	if err != nil {
		return err
	}
	out := MixResult{Throughput: mix.Throughput, Latency: mix.Latency}
	for _, c := range comps {
		pt, err := serve.EstimatePoint(c.Model)
		if err != nil {
			return err
		}
		pt.PathsLatency = nil
		out.Components = append(out.Components, pt)
	}
	if jsonOut {
		return json.NewEncoder(w).Encode(out)
	}
	fmt.Fprintf(w, "mixed throughput: %s\n", unit.Bandwidth(out.Throughput))
	fmt.Fprintf(w, "mixed latency:    %s\n", unit.Duration(out.Latency))
	fmt.Fprintln(w, "components:")
	for i, c := range comps {
		pt := out.Components[i]
		fmt.Fprintf(w, "  %7s @ %-10s -> %-10s latency %-10s bottleneck %s\n",
			unit.Size(c.Model.Traffic.Granularity), unit.Bandwidth(c.Model.Traffic.IngressBW),
			unit.Bandwidth(pt.Throughput), unit.Duration(pt.Latency), pt.Bottleneck)
	}
	return nil
}

// LoadFile reads a JSON spec file without converting it, for callers that
// need mix or other spec-level features.
func LoadFile(path string) (spec.File, error) { return spec.Load(path) }
