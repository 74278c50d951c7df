package cli

// The faults subcommand: healthy-vs-degraded comparison of a model under
// a fault scenario, analytically (core.Degrade) and optionally by faulted
// simulation (sim.PermanentFaults).

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"lognic/internal/core"
	"lognic/internal/serve"
	"lognic/internal/sim"
	"lognic/internal/spec"
	"lognic/internal/unit"
)

// Main dispatches the subcommand-style entry points of cmd/lognic.
// It returns the process exit code: 0 on success, 1 on runtime errors,
// 2 on usage errors.
func Main(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		fmt.Fprintln(stderr, "usage: lognic <subcommand> [args]\nsubcommands: faults, trace, serve")
		return 2
	}
	switch argv[0] {
	case "faults":
		return faultsMain(argv[1:], stdout, stderr)
	case "trace":
		return traceMain(argv[1:], stdout, stderr)
	case "serve":
		return serve.Main(argv[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "lognic: unknown subcommand %q (have: faults, trace, serve)\n", argv[0])
		return 2
	}
}

// faultsMain parses `lognic faults` arguments and runs the comparison.
func faultsMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	simRun := fs.Bool("sim", false, "also measure healthy and faulted simulation runs")
	duration := fs.Float64("duration", 0.05, "simulated seconds per -sim run")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lognic faults [-json] [-sim] [-duration s] [-seed n] model.json scenario.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	m, err := LoadModel(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "lognic:", err)
		return 1
	}
	sc, err := spec.LoadScenario(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "lognic:", err)
		return 1
	}
	opts := FaultsOptions{Sim: *simRun, Duration: *duration, Seed: *seed, JSON: *jsonOut}
	if err := RunFaults(stdout, m, sc, opts); err != nil {
		fmt.Fprintln(stderr, "lognic:", err)
		return 1
	}
	return 0
}

// FaultsOptions tunes RunFaults.
type FaultsOptions struct {
	// Sim additionally measures both operating points by simulation.
	Sim bool
	// Duration is the simulated time per run (seconds).
	Duration float64
	// Seed drives the simulation randomness.
	Seed int64
	// JSON selects machine-readable output.
	JSON bool
}

// FaultsSide is one column of the healthy-vs-degraded comparison.
type FaultsSide struct {
	// Capacity is the load-independent saturation throughput (B/s).
	Capacity float64 `json:"capacity"`
	// Bottleneck is the tightest Equation 4 constraint.
	Bottleneck string `json:"bottleneck"`
	// Latency and DropRate are the model's estimates at the spec's
	// offered load; present only when the spec offers traffic.
	Latency  float64 `json:"latency,omitempty"`
	DropRate float64 `json:"drop_rate,omitempty"`
	// Sim* are the measured counterparts; present only with -sim.
	SimThroughput float64 `json:"sim_throughput,omitempty"`
	SimLatency    float64 `json:"sim_latency,omitempty"`
	SimDropRate   float64 `json:"sim_drop_rate,omitempty"`
}

// FaultsResult is the JSON shape of a faults comparison.
type FaultsResult struct {
	Scenario string     `json:"scenario,omitempty"`
	Healthy  FaultsSide `json:"healthy"`
	Degraded FaultsSide `json:"degraded"`
	// FaultStats reports the degraded simulation's fault activity.
	FaultStats *sim.FaultStats `json:"fault_stats,omitempty"`
}

// faultsSide evaluates one operating point analytically.
func faultsSide(m core.Model) (FaultsSide, error) {
	sat, err := m.SaturationThroughput()
	if err != nil {
		return FaultsSide{}, err
	}
	side := FaultsSide{Capacity: sat.Attainable, Bottleneck: sat.Bottleneck.String()}
	if m.Traffic.IngressBW > 0 {
		if lr, err := m.Latency(); err == nil {
			side.Latency = lr.Attainable
			side.DropRate = lr.DropRate
		}
	}
	return side, nil
}

// simSide measures one operating point, with an optional fault schedule.
func simSide(m core.Model, faults sim.FaultSchedule, opts FaultsOptions) (sim.Result, error) {
	cfg := sim.ForModel(m)
	cfg.Seed = opts.Seed
	cfg.Duration = opts.Duration
	cfg.Faults = faults
	return sim.Run(cfg)
}

// RunFaults evaluates a model healthy and under a fault scenario, and
// renders the two operating points side by side.
func RunFaults(w io.Writer, m core.Model, sc spec.Scenario, opts FaultsOptions) error {
	d := sc.Degradation()
	dm, err := core.Degrade(m, d)
	if err != nil {
		return err
	}
	out := FaultsResult{Scenario: sc.Name}
	if out.Healthy, err = faultsSide(m); err != nil {
		return err
	}
	if out.Degraded, err = faultsSide(dm); err != nil {
		return err
	}
	if opts.Sim {
		if m.Traffic.IngressBW <= 0 {
			return fmt.Errorf("cli: -sim needs an offered load; set traffic.ingress_bw in the model spec")
		}
		healthy, err := simSide(m, nil, opts)
		if err != nil {
			return err
		}
		out.Healthy.SimThroughput = healthy.Throughput
		out.Healthy.SimLatency = healthy.MeanLatency
		out.Healthy.SimDropRate = healthy.DropRate
		degraded, err := simSide(m, sim.PermanentFaults(d), opts)
		if err != nil {
			return err
		}
		out.Degraded.SimThroughput = degraded.Throughput
		out.Degraded.SimLatency = degraded.MeanLatency
		out.Degraded.SimDropRate = degraded.DropRate
		out.FaultStats = &degraded.Faults
	}
	if opts.JSON {
		return json.NewEncoder(w).Encode(out)
	}
	renderFaults(w, m, out)
	return nil
}

// renderFaults prints the comparison table.
func renderFaults(w io.Writer, m core.Model, out FaultsResult) {
	if out.Scenario != "" {
		fmt.Fprintf(w, "scenario: %s\n", out.Scenario)
	}
	// Size the healthy/degraded columns to their widest cell (the
	// bottleneck descriptions routinely exceed a fixed width).
	width := 10
	for _, cell := range []string{
		out.Healthy.Bottleneck, out.Degraded.Bottleneck,
		unit.Bandwidth(out.Healthy.Capacity).String(),
		unit.Bandwidth(out.Degraded.Capacity).String(),
	} {
		if len(cell) >= width {
			width = len(cell) + 2
		}
	}
	row := func(label, healthy, degraded, change string) {
		fmt.Fprintf(w, "%-16s%-*s%-*s%s\n", label, width, healthy, width, degraded, change)
	}
	pct := func(h, d float64) string {
		if h == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", 100*(d-h)/h)
	}
	row("", "healthy", "degraded", "change")
	row("capacity",
		unit.Bandwidth(out.Healthy.Capacity).String(),
		unit.Bandwidth(out.Degraded.Capacity).String(),
		pct(out.Healthy.Capacity, out.Degraded.Capacity))
	row("bottleneck", out.Healthy.Bottleneck, out.Degraded.Bottleneck, "")
	if out.Healthy.Latency > 0 || out.Degraded.Latency > 0 {
		label := fmt.Sprintf("latency@%s", unit.Bandwidth(m.Traffic.IngressBW))
		row(label,
			unit.Duration(out.Healthy.Latency).String(),
			unit.Duration(out.Degraded.Latency).String(),
			pct(out.Healthy.Latency, out.Degraded.Latency))
		row("drop rate",
			fmt.Sprintf("%.4g", out.Healthy.DropRate),
			fmt.Sprintf("%.4g", out.Degraded.DropRate),
			"")
	}
	if out.FaultStats != nil {
		row("sim throughput",
			unit.Bandwidth(out.Healthy.SimThroughput).String(),
			unit.Bandwidth(out.Degraded.SimThroughput).String(),
			pct(out.Healthy.SimThroughput, out.Degraded.SimThroughput))
		row("sim latency",
			unit.Duration(out.Healthy.SimLatency).String(),
			unit.Duration(out.Degraded.SimLatency).String(),
			pct(out.Healthy.SimLatency, out.Degraded.SimLatency))
		row("sim drop rate",
			fmt.Sprintf("%.4g", out.Healthy.SimDropRate),
			fmt.Sprintf("%.4g", out.Degraded.SimDropRate),
			"")
		fs := out.FaultStats
		fmt.Fprintf(w, "fault events: engine-down %d, link-degrade %d, retries %d, retry drops %d\n",
			fs.EngineDownEvents, fs.LinkDegradeEvents, fs.Retries, fs.RetryDrops)
	}
}
