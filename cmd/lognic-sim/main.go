// Command lognic-sim runs the packet-level discrete-event simulator on a
// model described in a JSON spec file and prints measured throughput,
// latency percentiles, drop rate, and per-vertex utilization — the
// "measured" counterpart to cmd/lognic's analytical estimate, useful for
// validating a model against its simulated execution.
//
// Usage:
//
//	lognic-sim [-duration s] [-seed n] [-det] [-json] [-metrics file] [-trace file] [-pprof addr] model.json
//
// -metrics writes the run's counters, gauges and latency histogram to a
// file in the Prometheus text format; -trace writes the packet-span
// timeline as Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing); -pprof serves net/http/pprof, the live /metrics
// endpoint and a runtime/metrics snapshot (/runtime) on the given address
// for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"lognic/internal/cli"
	"lognic/internal/obs"
	"lognic/internal/obs/olog"
)

// lg is the process logger; fatal() is the single structured exit path.
var lg = olog.Discard()

func main() {
	duration := flag.Float64("duration", 0.2, "simulated seconds")
	seed := flag.Int64("seed", 1, "random seed")
	det := flag.Bool("det", false, "deterministic service times (mean instead of exponential)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	metricsOut := flag.String("metrics", "", "write run metrics (Prometheus text format) to this file")
	traceOut := flag.String("trace", "", "write packet spans (Chrome trace_event JSON) to this file")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof, /metrics and /runtime on this address (e.g. localhost:6060)")
	logOpts := olog.RegisterFlags(flag.CommandLine)
	flag.Parse()
	lg = cli.MustLogger("lognic-sim", logOpts)
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lognic-sim [-duration s] [-seed n] [-det] [-json] [-metrics file] [-trace file] [-pprof addr] model.json")
		os.Exit(2)
	}
	m, err := cli.LoadModel(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var reg *obs.Registry
	if *metricsOut != "" || *pprofAddr != "" {
		reg = obs.NewRegistry()
	}
	if *pprofAddr != "" {
		ln, err := cli.StartDebugServer(*pprofAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		lg.Info("debug server up", olog.KeyComponent, "sim", "addr", "http://"+ln.Addr().String()+"/")
	}
	err = cli.RunSim(os.Stdout, m, cli.SimOptions{
		Duration:      *duration,
		Seed:          *seed,
		Deterministic: *det,
		JSON:          *jsonOut,
		MetricsOut:    *metricsOut,
		TraceOut:      *traceOut,
		Registry:      reg,
	})
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	olog.Fatal(lg, "fatal error", olog.KeyComponent, "sim", "error", err.Error())
}
