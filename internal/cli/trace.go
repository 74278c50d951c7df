package cli

// The trace subcommand: run one traced simulation of a model, write the
// packet spans as Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing), and print the bottleneck-attribution cross-check of
// the analytical model against the measured run.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/metrics"

	"lognic/internal/core"
	"lognic/internal/obs"
	"lognic/internal/obs/olog"
	"lognic/internal/report"
	"lognic/internal/sim"
	"lognic/internal/unit"
)

// traceMain parses `lognic trace` arguments and runs the traced
// simulation.
func traceMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "trace.json", "Chrome trace_event output path")
	metricsOut := fs.String("metrics", "", "also write the run's metrics (Prometheus text format) to this path")
	duration := fs.Float64("duration", 0.05, "simulated seconds")
	warmup := fs.Float64("warmup", 0, "warmup seconds excluded from measured statistics")
	seed := fs.Int64("seed", 1, "simulation seed")
	spans := fs.Int("spans", 0, "span ring-buffer capacity (0 = default; oldest spans evicted beyond it)")
	jsonOut := fs.Bool("json", false, "emit the attribution report as JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lognic trace [-out trace.json] [-metrics file] [-duration s] [-seed n] [-spans n] [-json] model.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	m, err := LoadModel(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "lognic:", err)
		return 1
	}
	opts := TraceOptions{
		Out: *out, MetricsOut: *metricsOut,
		Duration: *duration, Warmup: *warmup, Seed: *seed,
		SpanCapacity: *spans, JSON: *jsonOut,
	}
	if err := RunTrace(stdout, m, opts); err != nil {
		fmt.Fprintln(stderr, "lognic:", err)
		return 1
	}
	return 0
}

// TraceOptions tunes RunTrace.
type TraceOptions struct {
	// Out is the Chrome trace_event JSON output path.
	Out string
	// MetricsOut optionally receives the run's Prometheus text export.
	MetricsOut string
	// Duration is the simulated time (seconds).
	Duration float64
	// Warmup is excluded from measured statistics.
	Warmup float64
	// Seed drives the randomness.
	Seed int64
	// SpanCapacity bounds the span ring buffer (0 = obs default).
	SpanCapacity int
	// JSON emits the attribution report as JSON instead of a table.
	JSON bool
}

// RunTrace simulates the model once with tracing and metrics attached,
// writes the span timeline as Chrome trace_event JSON, and renders the
// model-vs-simulator bottleneck attribution.
func RunTrace(w io.Writer, m core.Model, opts TraceOptions) error {
	tracer := obs.NewTracer(opts.SpanCapacity)
	reg := obs.NewRegistry()
	cfg := sim.ForModel(m)
	cfg.Seed = opts.Seed
	cfg.Duration = opts.Duration
	cfg.Warmup = opts.Warmup
	cfg.Spans = tracer
	cfg.Metrics = reg
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	if err := WriteFile(opts.Out, func(f io.Writer) error {
		return tracer.WriteChromeTrace(f, m.Graph.Name())
	}); err != nil {
		return err
	}
	if opts.MetricsOut != "" {
		if err := WriteFile(opts.MetricsOut, reg.WritePrometheus); err != nil {
			return err
		}
	}
	rep, err := report.Attribution(m, res)
	if err != nil {
		return err
	}
	if opts.JSON {
		return json.NewEncoder(w).Encode(rep)
	}
	fmt.Fprintf(w, "trace: %d spans (%d evicted) -> %s\n", tracer.Len(), tracer.Dropped(), opts.Out)
	fmt.Fprintf(w, "measured: %s throughput, mean latency %s, drop rate %.4g\n\n",
		unit.Bandwidth(res.Throughput), unit.Duration(res.MeanLatency), res.DropRate)
	_, err = io.WriteString(w, rep.Format())
	return err
}

// WriteFile creates path and streams render into it, reporting either
// failure.
func WriteFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MustLogger builds a command's stderr logger from -log-level and
// -log-format; a bad value is a usage error (exit 2).
func MustLogger(prog string, opts *olog.Options) *slog.Logger {
	l, err := opts.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
		os.Exit(2)
	}
	return l
}

// StartDebugServer serves observability endpoints on addr until the
// listener is closed: net/http/pprof under /debug/pprof/, the registry's
// Prometheus export at /metrics (?format=json for JSON), and a
// runtime/metrics snapshot at /runtime. It returns the bound listener so
// callers can use ":0" and read the chosen address.
func StartDebugServer(addr string, reg *obs.Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		// Every binary's debug surface reports what build it is — the
		// first question of any fleet investigation.
		obs.RegisterBuildInfo(reg)
		mux.Handle("/metrics", reg)
	}
	mux.HandleFunc("/runtime", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(RuntimeSnapshot())
	})
	go func() { _ = http.Serve(ln, mux) }()
	return ln, nil
}

// RuntimeSnapshot samples every runtime/metrics counter and gauge into a
// flat name → value map (histogram-valued metrics are skipped).
func RuntimeSnapshot() map[string]float64 {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// HeapBytes reads the live heap size from runtime/metrics — the
// lognic-bench run summary samples it between figures to report peak heap.
func HeapBytes() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}
