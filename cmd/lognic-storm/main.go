// Command lognic-storm load-tests a lognic-serve fleet: it generates a
// spec corpus (device × scenario × load permutations; -unique controls
// the cache hit ratio), drives it at one or many replicas with N workers
// in a closed loop (-rps 0, capacity probe) or an open loop at offered
// rates (-rps 500, or a sweep -rps 100:2000:5), honors the daemon's
// 429 + Retry-After backpressure, and reports throughput, error and shed
// rates, and p50/p90/p99/p999 latency per endpoint as a human table plus
// a JSON report.
//
// Usage:
//
//	lognic-storm -targets http://h1:8080,http://h2:8080
//	             [-workers n] [-duration d] [-rps 0|x|lo:hi:steps]
//	             [-endpoint estimate|simulate|optimize] [-unique n]
//	             [-sim-duration s] [-routing rr|hash] [-seed n]
//	             [-json file] [-metrics file] [-pprof addr]
//	             [-trace-sample f] [-trace-out trace.json]
//	             [-slo-availability f] [-slo-latency f]
//	             [-slo-latency-threshold d] [-log-level l] [-log-format f]
//	             [-tenants n] [-tenant-weights w0,w1,...]
//
// With -tenants N, the run is multi-tenant: N synthetic tenants named
// t0..tN-1 split the workers (closed loop) or the offered rate (open
// loop) in proportion to -tenant-weights (default: equal weights), every
// request carries its tenant in X-Lognic-Tenant, and the report and
// verdict lines grow one row per tenant — each graded against the same
// SLO objectives, so a fairness check reads straight off the output.
//
// With -trace-sample, sampled requests carry W3C traceparent headers the
// daemon joins; -trace-out merges the client spans with every replica's
// /v1/trace export into one Perfetto file. Each step is also graded
// against availability/latency SLOs and the verdict printed per step.
//
// Routing "hash" keys on the canonical spec hash — the same hash the
// daemon caches by — so every occurrence of a spec lands on one replica
// and the fleet's caches partition instead of duplicating.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lognic/internal/cli"
	"lognic/internal/obs"
	"lognic/internal/obs/olog"
	"lognic/internal/obs/slo"
	"lognic/internal/storm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("lognic-storm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	targets := fs.String("targets", "http://127.0.0.1:8080", "comma-separated replica base URLs")
	workers := fs.Int("workers", 8, "concurrent request workers")
	duration := fs.Duration("duration", 10*time.Second, "wall time per load step")
	rps := fs.String("rps", "0", "offered rate: 0 (closed loop), a rate, or lo:hi:steps for a sweep")
	endpoint := fs.String("endpoint", "estimate", "endpoint to drive: estimate, simulate or optimize")
	unique := fs.Int("unique", 64, "distinct specs in the corpus (smaller = higher cache hit ratio)")
	simDuration := fs.Float64("sim-duration", 0.002, "simulated seconds per /v1/simulate request")
	routing := fs.String("routing", "rr", "replica selection: rr (round-robin) or hash (spec-hash affinity)")
	seed := fs.Int64("seed", 1, "corpus seed (feeds per-item simulation seeds)")
	jsonOut := fs.String("json", "", "write the JSON report here ('-' for stdout) in addition to the table")
	metricsOut := fs.String("metrics", "", "write final metrics (Prometheus text format) to this file")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof and live /metrics on this address while running")
	traceSample := fs.Float64("trace-sample", 0, "fraction of requests that originate a W3C trace (1 traces everything)")
	traceOut := fs.String("trace-out", "", "write the merged client+fleet Perfetto trace here (requires -trace-sample > 0)")
	sloAvail := fs.Float64("slo-availability", 0.999, "availability objective for the run verdict (negative disables)")
	sloLatency := fs.Float64("slo-latency", 0.99, "latency objective for the run verdict (negative disables)")
	sloThreshold := fs.Duration("slo-latency-threshold", time.Second, "latency objective cutoff")
	tenantsN := fs.Int("tenants", 0, "number of synthetic tenants t0..tN-1 (0 runs untenanted)")
	tenantWeights := fs.String("tenant-weights", "", "comma-separated tenant weights, e.g. 10,1 (default: equal; requires -tenants)")
	logOpts := olog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lg, err := logOpts.Logger(stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	lg = lg.With(olog.KeyComponent, "storm")

	rates, err := parseRates(*rps)
	if err != nil {
		olog.Fail(lg, "bad flags", "error", err.Error())
		return 2
	}
	tenants, err := parseTenants(*tenantsN, *tenantWeights)
	if err != nil {
		olog.Fail(lg, "bad flags", "error", err.Error())
		return 2
	}
	corpus, err := storm.BuildCorpus(storm.CorpusConfig{
		Endpoint:    *endpoint,
		Unique:      *unique,
		SimDuration: *simDuration,
		Seed:        *seed,
	})
	if err != nil {
		olog.Fail(lg, "corpus build failed", "error", err.Error())
		return 2
	}

	reg := obs.NewRegistry()
	if *pprofAddr != "" {
		ln, err := cli.StartDebugServer(*pprofAddr, reg)
		if err != nil {
			return olog.Fail(lg, "debug server failed", "error", err.Error())
		}
		defer ln.Close()
		lg.Info("debug server up", "addr", "http://"+ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tracer *obs.Tracer
	if *traceSample > 0 {
		// Built here, not in storm.Run, so every sweep step shares one
		// ring and the merged export covers the whole run.
		tracer = obs.NewTracer(0)
	} else if *traceOut != "" {
		olog.Fail(lg, "-trace-out needs -trace-sample > 0")
		return 2
	}
	cfg := storm.Config{
		Targets:     splitTargets(*targets),
		Workers:     *workers,
		Duration:    *duration,
		Routing:     *routing,
		Corpus:      corpus,
		Registry:    reg,
		TraceSample: *traceSample,
		Tracer:      tracer,
		Tenants:     tenants,
		SLO: slo.Config{
			AvailabilityTarget: max(*sloAvail, 0),
			LatencyTarget:      max(*sloLatency, 0),
			LatencyThreshold:   *sloThreshold,
		},
	}
	lg.Info("starting sweep",
		"targets", len(cfg.Targets), "workers", cfg.Workers,
		"corpus", len(corpus), "endpoint", *endpoint,
		"steps", len(rates), "step_duration", duration.String(),
		"trace_sample", *traceSample)

	reports, err := storm.Sweep(ctx, cfg, rates)
	if err != nil && len(reports) == 0 {
		return olog.Fail(lg, "sweep failed", "error", err.Error())
	}
	if err != nil {
		lg.Warn("sweep interrupted", "completed_steps", len(reports), "error", err.Error())
	}

	fmt.Fprint(stdout, storm.Table(reports))
	printVerdicts(stdout, reports)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, stdout, reports); err != nil {
			return olog.Fail(lg, "writing JSON report failed", "error", err.Error())
		}
	}
	if *traceOut != "" {
		if err := cli.WriteFile(*traceOut, func(w io.Writer) error {
			return storm.WriteMergedTrace(w, tracer, cfg.Targets, cfg.Client)
		}); err != nil {
			return olog.Fail(lg, "writing merged trace failed", "error", err.Error())
		}
		lg.Info("merged trace written", "path", *traceOut)
	}
	if *metricsOut != "" {
		if err := cli.WriteFile(*metricsOut, reg.WritePrometheus); err != nil {
			return olog.Fail(lg, "writing metrics failed", "error", err.Error())
		}
	}

	// A run that completed nothing is a failed run, whatever the table says.
	var completed uint64
	for _, r := range reports {
		completed += r.Completed
	}
	if completed == 0 {
		return olog.Fail(lg, "no requests completed")
	}
	return 0
}

// printVerdicts appends one SLO line per graded step to the table, plus
// one line per tenant in multi-tenant runs.
func printVerdicts(stdout *os.File, reports []*storm.Report) {
	for i, r := range reports {
		if r.SLO == nil || len(r.SLO.Windows) == 0 {
			continue
		}
		w := r.SLO.Windows[0]
		fmt.Fprintf(stdout,
			"slo step %d: verdict=%s availability=%.5f (burn %.2f) latency_compliance=%.5f (burn %.2f) traced=%d\n",
			i+1, r.SLO.Verdict, w.Availability, w.AvailabilityBurn,
			w.LatencyCompliance, w.LatencyBurn, r.Traced)
		names := make([]string, 0, len(r.Tenants))
		for name := range r.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			tr := r.Tenants[name]
			if tr.SLO == nil || len(tr.SLO.Windows) == 0 {
				continue
			}
			tw := tr.SLO.Windows[0]
			fmt.Fprintf(stdout,
				"slo step %d tenant %s: verdict=%s availability=%.5f latency_compliance=%.5f completed=%d shed=%d shed_rate=%.3f\n",
				i+1, name, tr.SLO.Verdict, tw.Availability, tw.LatencyCompliance,
				tr.Completed, tr.Shed+tr.Dropped, tr.ShedRate)
		}
	}
}

// parseTenants builds the synthetic tenant set for -tenants/-tenant-weights:
// n tenants named t0..tn-1, weights from the comma list (all 1 when empty,
// exactly n positive values otherwise).
func parseTenants(n int, weights string) ([]storm.TenantLoad, error) {
	if n <= 0 {
		if weights != "" {
			return nil, fmt.Errorf("-tenant-weights requires -tenants > 0")
		}
		return nil, nil
	}
	out := make([]storm.TenantLoad, n)
	for i := range out {
		out[i] = storm.TenantLoad{Name: fmt.Sprintf("t%d", i), Weight: 1}
	}
	if weights == "" {
		return out, nil
	}
	parts := strings.Split(weights, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-tenant-weights has %d values, -tenants is %d", len(parts), n)
	}
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad tenant weight %q (want a positive number)", p)
		}
		out[i].Weight = w
	}
	return out, nil
}

func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, strings.TrimRight(t, "/"))
		}
	}
	return out
}

// parseRates parses -rps: "0" (closed loop), a single rate, or
// "lo:hi:steps" for a linear sweep, endpoints included.
func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	switch len(parts) {
	case 1:
		r, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad -rps %q", s)
		}
		return []float64{r}, nil
	case 3:
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		steps, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || lo <= 0 || hi < lo || steps < 2 {
			return nil, fmt.Errorf("bad -rps sweep %q (want lo:hi:steps, lo>0, hi≥lo, steps≥2)", s)
		}
		rates := make([]float64, steps)
		for i := range rates {
			rates[i] = lo + (hi-lo)*float64(i)/float64(steps-1)
		}
		return rates, nil
	default:
		return nil, fmt.Errorf("bad -rps %q (want 0, a rate, or lo:hi:steps)", s)
	}
}

// writeJSON writes the report list as one JSON document.
func writeJSON(path string, stdout *os.File, reports []*storm.Report) error {
	var enc *json.Encoder
	if path == "-" {
		enc = json.NewEncoder(stdout)
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
