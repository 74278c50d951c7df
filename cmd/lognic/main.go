// Command lognic evaluates a LogNIC model described in a JSON spec file
// (see internal/spec for the format): it prints the estimated attainable
// throughput with the full constraint list (Equation 4), the average
// latency with its per-path breakdown (Equation 8), and the queue
// drop-rate estimate.
//
// Usage:
//
//	lognic [-json] [-sweep lo:hi:steps] model.json
//	lognic -optimize latency|throughput|goodput -knob v.parallelism=1..16 [-knob ...] model.json
//	lognic faults [-json] [-sim] [-duration s] [-seed n] model.json scenario.json
//	lognic trace [-out trace.json] [-metrics file] [-duration s] [-seed n] model.json
//	lognic serve [-addr host:port] [-workers n] [-queue n] [-cache n] [-jobs-dir path] [-pprof]
//
// With -sweep, the ingress bandwidth is swept across the given range
// (accepts unit strings, e.g. -sweep 1Gbps:25Gbps:10) and one row per
// operating point is printed — the latency-vs-throughput curves of the
// paper's Figure 6. With -optimize, the model's optimizer mode searches
// the named integer knobs (a vertex's parallelism degree D or queue
// capacity N) for the configuration that best meets the goal.
//
// The faults subcommand compares the model healthy and under a fault
// scenario (a JSON file naming lost engines and degraded links; see
// internal/spec.Scenario): degraded-mode capacity, bottleneck and latency
// side by side, optionally cross-checked by faulted simulation with -sim.
//
// The trace subcommand runs one traced simulation: it writes every
// packet's span timeline (vertex visits with queue-wait, service and
// transfer phases) as Chrome trace_event JSON — load it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing — and prints the
// bottleneck-attribution table cross-checking the analytical model
// against the measured run.
//
// The serve subcommand starts lognic-serve, the HTTP/JSON evaluation
// daemon, including its crash-safe async job API (with -jobs-dir,
// accepted jobs survive kill -9 and interrupted simulations resume from
// checkpoints). See cmd/lognic-serve, internal/serve and internal/jobs.
package main

import (
	"flag"
	"fmt"
	"os"

	"lognic/internal/cli"
	"lognic/internal/obs/olog"
)

type knobList []string

func (k *knobList) String() string     { return fmt.Sprint(*k) }
func (k *knobList) Set(v string) error { *k = append(*k, v); return nil }

// lg is the process logger; every fatal path exits through fatal() so
// errors come out as structured records on one code path.
var lg = olog.Discard()

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "faults" || os.Args[1] == "trace" || os.Args[1] == "serve") {
		os.Exit(cli.Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	sweep := flag.String("sweep", "", "sweep ingress bandwidth: lo:hi:steps (e.g. 1Gbps:25Gbps:10)")
	optimize := flag.String("optimize", "", "optimizer mode goal: latency, throughput or goodput")
	mixOut := flag.Bool("mix", false, "evaluate the spec's traffic mix (Extension #2)")
	var knobs knobList
	flag.Var(&knobs, "knob", "optimizer knob vertex.param=lo..hi (repeatable; param: parallelism|queue)")
	logOpts := olog.RegisterFlags(flag.CommandLine)
	flag.Parse()
	lg = cli.MustLogger("lognic", logOpts)
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lognic [-json] [-sweep lo:hi:steps] model.json")
		os.Exit(2)
	}
	if *mixOut {
		f, err := cli.LoadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if err := cli.RunMix(os.Stdout, f, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	m, err := cli.LoadModel(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *optimize != "" {
		if err := cli.RunOptimize(os.Stdout, m, *optimize, knobs, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *sweep != "" {
		if err := cli.RunSweep(os.Stdout, m, *sweep, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if err := cli.RunPoint(os.Stdout, m, *jsonOut); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	olog.Fatal(lg, "fatal error", olog.KeyComponent, "lognic", "error", err.Error())
}
