// Command perfbench is the repository benchmark. It starts a fresh
// lognic-serve process, drives it over loopback in a closed loop with one
// keep-alive connection per client (at most two, and at most nproc), and
// reports end-to-end metrics for one workload. With -trace 1 it also
// replays the workload in-process with spans around each layer's public
// calls and reports per-layer metrics instead; the spans are written as a
// Chrome trace under -out.
//
// Usage (from the repository root, after building both binaries; the
// run.sh next to this file does both):
//
//	perfbench -daemon path/to/lognic-serve -workload estimate-hot \
//	    -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every response matched its in-process reference and every workload
// self-check held.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"lognic/internal/obs"
)

const (
	// setupRuns is how many times a run starts the daemon to time its
	// set-up; the last one serves the timed phase.
	setupRuns = 25
	// warmupTime is the untimed closed-loop phase before the timed one.
	warmupTime = time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
	daemonPath := fs.String("daemon", "", "lognic-serve binary to benchmark")
	outDir := fs.String("out", ".bench_build", "directory for the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *daemonPath == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -daemon, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	conns := min(2, runtime.NumCPU())
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	hostJSON, _ := json.Marshal(describeHost(root, conns))
	fmt.Fprintf(stdout, "host: %s\n", hostJSON)
	fmt.Fprintf(stdout, "workload %s: %d distinct items, seed %d, %d connections, %ds timed\n",
		w.name, len(w.items), *seed, conns, *seconds)

	e, err := measure(w, *daemonPath, conns, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := &report{Correct: len(e.problems) == 0, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	if *trace == 1 {
		tracePath := filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := layerMetrics(rep, w, e, tracePath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", tracePath)
	} else {
		endToEndMetrics(rep, e)
	}
	for _, p := range e.problems {
		fmt.Fprintln(stdout, "FAILED:", p)
	}
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// e2e is the outcome of one end-to-end run against the daemon.
type e2e struct {
	setup             sample // seconds from exec to ready (plus warm pass)
	timed             loadResult
	attempted, failed int64
	delta, end        counters // /metrics over the timed phase, and at its end
	cpuSeconds        float64  // daemon CPU over the timed phase
	rss               sample   // daemon VmRSS samples over the timed phase, MB
	peakRSSMB         float64  // daemon VmHWM at the end of the timed phase
	problems          []string // failed correctness and self-checks
}

// measure times the daemon's set-up, runs the closed loop, and checks the
// responses and the daemon's own counters.
func measure(w workload, daemonPath string, conns int, d time.Duration) (*e2e, error) {
	e := &e2e{}
	var dmn *daemon
	defer func() {
		if dmn != nil {
			dmn.stop()
		}
	}()
	for k := 0; k < setupRuns; k++ {
		if dmn != nil {
			dmn.stop()
		}
		var ready time.Duration
		var err error
		if dmn, ready, err = startDaemon(daemonPath); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if w.hot {
			if err := warm(dmn.base, w); err != nil {
				return nil, err
			}
		}
		e.setup = append(e.setup, (ready + time.Since(t0)).Seconds())
	}

	clients := make([]*http.Client, conns)
	for k := range clients {
		clients[k] = newClient()
		defer clients[k].CloseIdleConnections()
	}
	ctl := &http.Client{Timeout: 10 * time.Second}
	defer ctl.CloseIdleConnections()
	tr := newTracker(len(w.items))
	var cursor atomic.Int64
	warmup := runLoad(clients, dmn.base, w, &cursor, tr, warmupTime)
	m0, err := scrape(ctl, dmn.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPUSeconds(dmn.pid())
	if err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rss := sampleRSS(dmn.pid(), 100*time.Millisecond, stopRSS)
	e.timed = runLoad(clients, dmn.base, w, &cursor, tr, d)
	close(stopRSS)
	e.rss = <-rss
	cpu1, err := procCPUSeconds(dmn.pid())
	if err != nil {
		return nil, err
	}
	if e.end, err = scrape(ctl, dmn.base); err != nil {
		return nil, err
	}
	if e.peakRSSMB, err = procStatusMB(dmn.pid(), "VmHWM"); err != nil {
		return nil, err
	}
	dmn.stop()
	dmn = nil
	e.cpuSeconds = cpu1 - cpu0
	e.delta = counters{}
	for k, v := range e.end {
		e.delta[k] = v - m0[k]
	}
	e.attempted = warmup.attempted + e.timed.attempted
	e.failed = warmup.failed + e.timed.failed

	// Correctness gate: each item's first response must equal the
	// in-process reference; repeats were already held to the first.
	refs, err := references(w, tr.answered())
	if err != nil {
		return nil, err
	}
	refFailed, wrong := tr.verify(refs)
	e.failed += refFailed
	if len(wrong) > 0 {
		sort.Ints(wrong)
		e.problems = append(e.problems, fmt.Sprintf("%d items differ from the in-process reference (first: item %d)", len(wrong), wrong[0]))
	}
	if e.failed > 0 {
		e.problems = append(e.problems, fmt.Sprintf("%d of %d requests failed", e.failed, e.attempted))
	}
	e.problems = append(e.problems, selfChecks(w, e)...)
	if err := e.timed.lat.checkTail("latency_p99_ms", 0.99); err != nil {
		e.problems = append(e.problems, err.Error())
	}
	return e, nil
}

// warm sends every item once, so each later request for it is an
// exact-body L1 hit.
func warm(base string, w workload) error {
	c := newClient()
	defer c.CloseIdleConnections()
	tr := newTracker(len(w.items))
	var buf bytes.Buffer
	for i := range w.items {
		if !send(c, base, w, i, &buf, tr) {
			return fmt.Errorf("warm pass: item %d failed", i)
		}
	}
	return nil
}

// selfChecks verifies from the daemon's own counters that the workload
// loaded the layer it exists for.
func selfChecks(w workload, e *e2e) []string {
	var out []string
	if r := e.end["lognic_serve_rejected_total"]; r != 0 {
		out = append(out, fmt.Sprintf("daemon shed %v requests with 429", r))
	}
	hits, l1, lookups := hitRatios(e.delta)
	switch {
	case lookups == 0:
		out = append(out, "no cache lookups in the timed phase")
	case w.hot && l1 < 0.99:
		out = append(out, fmt.Sprintf("L1 hit ratio %.4f < 0.99 on a hot workload", l1))
	case !w.hot && hits != 0:
		out = append(out, fmt.Sprintf("hit ratio %.4f, want 0 on a cold workload", hits))
	case !w.hot && e.end["lognic_serve_cache_entries"] != cacheEntries:
		out = append(out, fmt.Sprintf("cache holds %v entries, want its limit %d (evictions)", e.end["lognic_serve_cache_entries"], cacheEntries))
	}
	return out
}

// hitRatios returns the hit and L1-hit ratios over a counter delta, and
// the number of cache lookups they are ratios of.
func hitRatios(delta counters) (hit, l1, lookups float64) {
	lookups = delta["lognic_serve_cache_hits_total"] + delta["lognic_serve_cache_misses_total"]
	if lookups == 0 {
		return 0, 0, 0
	}
	return delta["lognic_serve_cache_hits_total"] / lookups, delta["lognic_serve_cache_l1_hits_total"] / lookups, lookups
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line, plus the human-readable lines before it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	lines     []string
}

// add records a metric and its human-readable line; note carries the
// sample count behind it.
func (r *report) add(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("%-28s %14.6g %-6s %s", name, v, unit, note))
}

// print writes the metric lines, then the JSON result as the last line.
func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	out, err := json.Marshal(r)
	if err != nil {
		// Only a NaN or infinite metric can fail to marshal.
		panic("perfbench: unreportable metric: " + err.Error())
	}
	fmt.Fprintf(w, "%s\n", out)
}

// pctNote describes the support of a percentile: its sample count and the
// samples beyond it.
func pctNote(s sample, q float64) string {
	return fmt.Sprintf("(n=%d, %d beyond p%g)", len(s), s.beyond(q), q*100)
}

// endToEndMetrics reports what a client of the daemon sees.
func endToEndMetrics(r *report, e *e2e) {
	ok := e.timed.attempted - e.timed.failed
	r.add("setup_s", e.setup.quantile(0.5), "s", fmt.Sprintf("(median of %d starts, quartiles %.4g..%.4g)",
		len(e.setup), e.setup.quantile(0.25), e.setup.quantile(0.75)))
	r.add("throughput_rps", float64(ok)/e.timed.elapsed.Seconds(), "1/s",
		fmt.Sprintf("(%d correct in %.3fs)", ok, e.timed.elapsed.Seconds()))
	r.add("latency_p50_ms", e.timed.lat.quantile(0.5)*1e3, "ms", pctNote(e.timed.lat, 0.5))
	if e.timed.lat.beyond(0.99) >= minTail {
		r.add("latency_p99_ms", e.timed.lat.quantile(0.99)*1e3, "ms", pctNote(e.timed.lat, 0.99))
	}
	r.add("rss_mb", e.rss.quantile(0.5), "MB", fmt.Sprintf("(median daemon VmRSS of %d samples)", len(e.rss)))
}

// layerMetrics runs the in-process replays and reports per-layer metrics,
// plus the daemon-side counters of the end-to-end run.
func layerMetrics(r *report, w workload, e *e2e, tracePath string) error {
	bare, err := replay(w, nil)
	if err != nil {
		return err
	}
	tr := obs.NewTracer(8 * w.traceRequests)
	L, err := replay(w, tr)
	if err != nil {
		return err
	}
	if err := writeTrace(tr, tracePath, "perfbench "+w.name); err != nil {
		return err
	}
	us := func(name string, s sample, q float64) {
		r.add(name, s.quantile(q)*1e6, "us", pctNote(s, q))
	}
	r.add("http.overhead_us_p50", (e.timed.lat.quantile(0.5)-L.handler.quantile(0.5))*1e6, "us",
		"(end-to-end p50 minus handler p50)")
	us("serve.handler_us_p50", L.handler, 0.5)
	us("serve.handler_us_p99", L.handler, 0.99)
	us("serve.self_us_p50", L.self, 0.5)
	us("serve.marshal_us_p50", L.marshal, 0.5)
	r.add("serve.response_bytes_p50", L.respBytes.quantile(0.5), "B", pctNote(L.respBytes, 0.5))

	hit, l1, lookups := hitRatios(e.delta)
	note := fmt.Sprintf("(of %.0f lookups in the timed phase)", lookups)
	r.add("serve.l1_hit_ratio", l1, "frac", note)
	r.add("serve.hit_ratio", hit, "frac", note)
	r.add("serve.rejected", e.end["lognic_serve_rejected_total"], "count", "(daemon lifetime)")
	r.add("serve.cache_entries", e.end["lognic_serve_cache_entries"], "count", "(end of run)")
	r.add("serve.cache_bytes", e.end["lognic_serve_cache_bytes"], "B", "(end of run)")
	done := e.timed.attempted
	r.add("server.cpu_us_per_req", e.cpuSeconds/float64(max(done, 1))*1e6, "us",
		fmt.Sprintf("(%.2f CPU s over %d requests)", e.cpuSeconds, done))
	r.add("server.peak_rss_mb", e.peakRSSMB, "MB", "(daemon VmHWM at the end of the timed phase)")

	us("spec.decode_us_p50", L.decode, 0.5)
	us("spec.validate_us_p50", L.validate, 0.5)
	us("spec.hash_us_p50", L.hash, 0.5)
	us("core.estimate_us_p50", L.estimate, 0.5)
	us("core.estimate_us_p99", L.estimate, 0.99)
	us("optimizer.solve_us_p50", L.solve, 0.5)
	us("optimizer.solve_us_p99", L.solve, 0.99)
	r.add("optimizer.evals_per_solve", L.evals.quantile(0.5), "count", pctNote(L.evals, 0.5))
	us("sim.new_us_p50", L.simNew, 0.5)
	r.add("sim.run_ms_p50", L.simRun.quantile(0.5)*1e3, "ms", pctNote(L.simRun, 0.5))
	r.add("sim.run_ms_p99", L.simRun.quantile(0.99)*1e3, "ms", pctNote(L.simRun, 0.99))
	r.add("sim.events_per_run_p50", L.events.quantile(0.5), "count", pctNote(L.events, 0.5))
	events := L.events.sum()
	perEvent := func(v float64) float64 {
		if events == 0 {
			return 0
		}
		return v / events
	}
	evNote := fmt.Sprintf("(over %.0f events)", events)
	r.add("sim.ns_per_event", perEvent(L.simRun.sum()*1e9), "ns", evNote)
	r.add("sim.allocs_per_event", perEvent(L.simAllocs), "count", evNote)
	r.add("sim.bytes_per_event", perEvent(L.simBytes), "B", evNote)
	handler := L.handler.sum()
	r.add("bench.trace_overhead_frac", handler/bare.handler.sum()-1, "frac",
		fmt.Sprintf("(handler time traced vs untraced over %d requests)", w.traceRequests))
	r.add("bench.failed_frac", float64(e.failed)/float64(max(e.attempted, 1)), "frac",
		fmt.Sprintf("(%d failed of %d)", e.failed, e.attempted))

	// Where the handler's time went, as shares of the traced handler total.
	spec := L.decode.sum() + L.validate.sum() + L.hash.sum()
	sim := L.simNew.sum() + L.simRun.sum()
	r.lines = append(r.lines, fmt.Sprintf("handler time shares: spec %.1f%%, core %.1f%%, optimizer %.1f%%, sim %.1f%%, marshal %.1f%%, serve self %.1f%%",
		100*spec/handler, 100*L.estimate.sum()/handler, 100*L.solve.sum()/handler,
		100*sim/handler, 100*L.marshal.sum()/handler, 100*L.self.sum()/handler))
	return nil
}
