// Command lognic-bench regenerates the data behind every result figure of
// the paper's evaluation (§4) and prints each as an aligned table — the
// same rows and series the paper plots. With no arguments it prints all
// fourteen figures; otherwise it prints the listed figure ids (fig5, fig6,
// fig7, fig9..fig19). Figures plotted from one experiment (11/12, 13/14,
// 16/17, 18/19) come from one study, which runs once however many of its
// figures are listed. An unknown id or -format is a usage error (exit 2)
// before anything regenerates. The text format also prints the
// optimizer-suggested configurations the paper quotes as anchors (Figure 9
// saturation cores, Figure 15 credits, Figure 18/19 parallel degrees),
// once per study.
//
// Usage:
//
//	lognic-bench [-scale f] [-seed n] [-parallel n] [-format text|csv|md] [fig5 fig9 ...]
//	lognic-bench -summary [-scale f] [-seed n] [-parallel n] [-format md]
//
// -summary prints the paper-vs-reproduction comparison table recorded in
// EXPERIMENTS.md. It regenerates the seven studies it reads, each once
// (about 35 s at full scale on 2 vCPUs). The table is Markdown and covers
// a fixed set of figures, so -summary with figure ids, or with -format set
// to anything but md, is a usage error.
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
	parallel := flag.Int("parallel", 0, "sweep worker count per study (0 = GOMAXPROCS); results are identical at any worker count")
	metricsOut := flag.String("metrics", "", "write accumulated metrics (Prometheus text format) to this file")
	traceOut := flag.String("trace", "", "sample packet spans into this Chrome trace_event file")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof, /metrics and /runtime on this address while running")
	summaryOut := flag.String("run-summary", "", "write the final JSON run summary to this file instead of stderr")
	logOpts := olog.RegisterFlags(flag.CommandLine)
	flag.Parse()
	lg = cli.MustLogger("lognic-bench", logOpts)
	formatSet := false
	flag.Visit(func(f *flag.Flag) { formatSet = formatSet || f.Name == "format" })
	if err := checkArgs(*summary, *format, formatSet, flag.Args()); err != nil {
		usageError(err.Error())
	}
	ids := flag.Args()
	if len(ids) == 0 {
		for _, st := range experiments.Studies() {
			ids = append(ids, st.Figures...)
		}
	}
	studies, err := experiments.Resolve(ids...)
	if err != nil {
		usageError(err.Error())
	}

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
	type outcome struct {
		fig     experiments.Figure
		err     error
		elapsed time.Duration // of the whole study
		study   string        // the study's first figure id
	}
	// Studies run one after another; the parallelism lives inside each
	// study's sweep, which keeps the pool bounded by -parallel instead
	// of multiplying it by the number of studies.
	results := map[string]outcome{}
	for _, st := range studies {
		start := time.Now()
		figs, err := st.Run(opts)
		elapsed := time.Since(start)
		for i, id := range st.Figures {
			res := outcome{err: err, elapsed: elapsed, study: st.Figures[0]}
			if err == nil {
				res.fig = figs[i]
			}
			results[id] = res
		}
		if heap := cli.HeapBytes(); heap > sum.PeakHeapByte {
			sum.PeakHeapByte = heap
		}
	}
	sum.Figures = ids

	failed := false
	anchored := map[string]bool{}
	for _, id := range ids {
		res := results[id]
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
			if !anchored[res.study] {
				anchored[res.study] = true
				printAnchors(res.study)
			}
		}
	}
	finish(failed)
}

// checkArgs reports a usage error in the arguments other than figure
// ids, which experiments.Resolve checks: an unknown format, or -summary
// together with figure ids or with an explicitly set format other than
// md.
func checkArgs(summary bool, format string, formatSet bool, ids []string) error {
	switch format {
	case "text", "csv", "md":
	default:
		return fmt.Errorf("unknown -format %q (have: text, csv, md)", format)
	}
	if !summary {
		return nil
	}
	if len(ids) > 0 {
		return fmt.Errorf("-summary takes no figure ids, got %q", ids)
	}
	if formatSet && format != "md" {
		return fmt.Errorf("-summary prints only md, got -format %q", format)
	}
	return nil
}

// usageError reports a bad invocation and exits 2 before anything runs.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "lognic-bench:", msg)
	fmt.Fprintln(os.Stderr, "usage: lognic-bench [-scale f] [-seed n] [-parallel n] [-format text|csv|md] [fig5 fig9 ...]")
	fmt.Fprintln(os.Stderr, "       lognic-bench -summary [-scale f] [-seed n] [-parallel n] [-format md]")
	os.Exit(2)
}

// sumGauge totals a gauge family across its label sets (the sweep engine
// keeps one lognic_sweep_points_done series per study sweep).
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
// with a study, named by its first figure id, when the paper quotes them.
func printAnchors(study string) {
	switch study {
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
	case "fig18":
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
