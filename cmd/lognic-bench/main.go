// Command lognic-bench regenerates the data behind every result figure of
// the paper's evaluation (§4) and prints each as an aligned table — the
// same rows and series the paper plots. With no arguments it runs all
// fourteen figures; otherwise it runs the listed figure ids (fig5, fig6,
// fig7, fig9..fig19). It also prints the optimizer-suggested
// configurations the paper quotes as anchors (Figure 9 saturation cores,
// Figure 15 credits, Figure 18 parallel degrees).
//
// Usage:
//
//	lognic-bench [-scale f] [-seed n] [-parallel n] [-format text|csv|md] [fig5 fig9 ...]
//	lognic-bench -summary [-scale f] [-seed n] [-parallel n]
//
// -summary prints the paper-vs-reproduction comparison table recorded in
// EXPERIMENTS.md (regenerates every figure; takes a few minutes at full
// scale).
//
// Observability: every run ends with a one-line JSON run summary (wall
// time, sweep points, workers, peak heap from runtime/metrics) on stderr,
// or in the file named by -run-summary. -metrics writes the accumulated
// sweep and simulator metrics in the Prometheus text format; -trace
// samples packet spans into a Chrome trace_event file; -pprof serves
// /debug/pprof, live /metrics and /runtime while figures regenerate.
// None of these change figure output — observability consumes no
// simulator randomness.
//
// -parallel N bounds the sweep engine's worker pool: every figure fans its
// points and simulator replications out over N workers (default
// GOMAXPROCS). Output is byte-identical at any worker count — each
// replication's RNG stream is derived by hashing (base seed, figure,
// point, replication), so -parallel 1 and -parallel 64 print the same
// tables for the same -seed. -seed 0 is a valid seed, distinct from the
// default -seed 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"lognic/internal/cli"
	"lognic/internal/experiments"
	"lognic/internal/obs"
	"lognic/internal/obs/olog"
	"lognic/internal/report"
)

// lg is the process logger; every error surfaces through it as a
// structured record, and fatal paths exit via olog.Fatal.
var lg = olog.Discard()

// runSummary is the end-of-run JSON record: enough to spot a regressed or
// runaway benchmark run from logs alone.
type runSummary struct {
	WallSeconds  float64  `json:"wall_seconds"`
	Figures      []string `json:"figures"`
	SweepPoints  float64  `json:"sweep_points"`
	Workers      int      `json:"workers"`
	Scale        float64  `json:"scale"`
	Seed         int64    `json:"seed"`
	PeakHeapByte float64  `json:"peak_heap_bytes"`
	Failed       bool     `json:"failed,omitempty"`
}

func main() {
	scale := flag.Float64("scale", 1.0, "simulated-duration multiplier (smaller = faster, noisier)")
	seed := flag.Int64("seed", 1, "simulator random seed (0 is a valid seed)")
	format := flag.String("format", "text", "output format: text, csv or md")
	summary := flag.Bool("summary", false, "print the paper-vs-reproduction summary table")
	parallel := flag.Int("parallel", 0, "sweep worker count per figure (0 = GOMAXPROCS); results are identical at any worker count")
	metricsOut := flag.String("metrics", "", "write accumulated metrics (Prometheus text format) to this file")
	traceOut := flag.String("trace", "", "sample packet spans into this Chrome trace_event file")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof, /metrics and /runtime on this address while running")
	summaryOut := flag.String("run-summary", "", "write the final JSON run summary to this file instead of stderr")
	logOpts := olog.RegisterFlags(flag.CommandLine)
	flag.Parse()
	lg = cli.MustLogger("lognic-bench", logOpts)

	// The registry is always on: it feeds the run summary's sweep-point
	// count, and -metrics/-pprof expose it. Attaching it never changes
	// figure output.
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
	}
	if *pprofAddr != "" {
		ln, err := cli.StartDebugServer(*pprofAddr, reg)
		if err != nil {
			olog.Fatal(lg, "debug server failed", olog.KeyComponent, "bench", "error", err.Error())
		}
		defer ln.Close()
		lg.Info("debug server up", olog.KeyComponent, "bench", "addr", "http://"+ln.Addr().String()+"/")
	}

	opts := experiments.Options{
		Scale: *scale, Seed: *seed, SeedSet: true, Workers: *parallel,
		Metrics: reg, Trace: tracer,
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	sum := runSummary{Workers: workers, Scale: *scale, Seed: *seed}
	finish := func(failed bool) {
		sum.WallSeconds = time.Since(start).Seconds()
		if heap := cli.HeapBytes(); heap > sum.PeakHeapByte {
			sum.PeakHeapByte = heap
		}
		sum.SweepPoints = sumGauge(reg, "lognic_sweep_points_done")
		if *metricsOut != "" {
			if err := cli.WriteFile(*metricsOut, reg.WritePrometheus); err != nil {
				lg.Error("writing metrics failed", olog.KeyComponent, "bench", "error", err.Error())
				failed = true
			}
		}
		if *traceOut != "" {
			if err := cli.WriteFile(*traceOut, func(w io.Writer) error {
				return tracer.WriteChromeTrace(w, "lognic-bench")
			}); err != nil {
				lg.Error("writing trace failed", olog.KeyComponent, "bench", "error", err.Error())
				failed = true
			}
		}
		// Failed is recorded after the output writes so a failed -metrics or
		// -trace write is visible in the summary, not just the exit code.
		sum.Failed = failed
		emitSummary(sum, *summaryOut)
		if failed {
			os.Exit(1)
		}
	}

	if *summary {
		rows, err := report.Summary(opts)
		if err != nil {
			lg.Error("summary failed", olog.KeyComponent, "bench", "error", err.Error())
			finish(true)
		}
		fmt.Print(report.SummaryMarkdown(rows))
		sum.Figures = []string{"summary"}
		finish(false)
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		for _, g := range experiments.All() {
			ids = append(ids, g.ID)
		}
	}
	type outcome struct {
		fig     experiments.Figure
		err     error
		elapsed time.Duration
	}
	// Figures run one after another; the parallelism lives inside each
	// figure's sweep, which keeps the pool bounded by -parallel instead
	// of multiplying it by the number of figures.
	results := make([]outcome, len(ids))
	for i := range ids {
		g, err := experiments.ByID(ids[i])
		if err != nil {
			results[i].err = err
			continue
		}
		start := time.Now()
		fig, err := g.Run(opts)
		results[i] = outcome{fig: fig, err: err, elapsed: time.Since(start)}
		if heap := cli.HeapBytes(); heap > sum.PeakHeapByte {
			sum.PeakHeapByte = heap
		}
	}
	sum.Figures = ids

	failed := false
	for i, id := range ids {
		res := results[i]
		if res.err != nil {
			lg.Error("figure failed", olog.KeyComponent, "bench", "figure", id, "error", res.err.Error())
			failed = true
			continue
		}
		switch *format {
		case "csv":
			fmt.Print(report.CSV(res.fig))
		case "md":
			fmt.Println(report.Markdown(res.fig))
		default:
			fmt.Printf("%s  (%.1fs)\n%s\n", id, res.elapsed.Seconds(), res.fig.Format())
			printAnchors(id)
		}
	}
	finish(failed)
}

// sumGauge totals a gauge family across its label sets (the sweep engine
// keeps one lognic_sweep_points_done series per figure).
func sumGauge(reg *obs.Registry, name string) float64 {
	var total float64
	for _, s := range reg.Gather() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// emitSummary writes the JSON run summary to path, or stderr when path is
// empty. Summary emission failing never masks the run's own exit status,
// so errors here are only reported.
func emitSummary(sum runSummary, path string) {
	out, err := json.Marshal(sum)
	if err != nil {
		lg.Error("run summary failed", olog.KeyComponent, "bench", "error", err.Error())
		return
	}
	out = append(out, '\n')
	if path == "" {
		os.Stderr.Write(out)
		return
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		lg.Error("run summary failed", olog.KeyComponent, "bench", "error", err.Error())
	}
}

// printAnchors emits the optimizer-suggested configurations associated
// with a figure, when the paper quotes them.
func printAnchors(id string) {
	switch id {
	case "fig9":
		sat, err := experiments.Fig9SaturationCores()
		if err != nil {
			lg.Warn("fig9 anchors failed", olog.KeyComponent, "bench", "error", err.Error())
			return
		}
		fmt.Printf("# model-derived saturation parallelism (paper: md5=9 kasumi=8 hfa=11):\n")
		printIntMap(sat)
	case "fig15":
		credits, err := experiments.Fig15SuggestedCredits()
		if err != nil {
			lg.Warn("fig15 anchors failed", olog.KeyComponent, "bench", "error", err.Error())
			return
		}
		fmt.Printf("# LogNIC-suggested minimal credits (paper: 5/4/4/4):\n")
		printIntMap(credits)
	case "fig18", "fig19":
		lanes, err := experiments.Fig18SuggestedLanes()
		if err != nil {
			lg.Warn("fig18 anchors failed", olog.KeyComponent, "bench", "error", err.Error())
			return
		}
		fmt.Printf("# LogNIC-suggested IP4 parallel degrees (paper: 6 and 4):\n")
		printIntMap(lanes)
	}
}

func printIntMap(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("#   %-28s %d\n", k, m[k])
	}
	fmt.Println()
}
