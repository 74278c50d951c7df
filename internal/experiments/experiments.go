// Package experiments regenerates every result figure of the paper's
// evaluation (§4): each FigNN function reproduces the corresponding
// figure's data series, pairing "Measured" runs of the discrete-event
// simulator (this repository's hardware substitute) with "LogNIC"
// estimates from the analytical model. cmd/lognic-bench prints them, the
// root bench_test.go wraps them in testing.B benchmarks, and
// EXPERIMENTS.md records the paper-vs-repo comparison.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"lognic/internal/obs"
	"lognic/internal/sim"
)

// Point is one (x, y) sample of a series. X carries the sweep variable in
// the paper's axis unit (packet bytes, cores, credits, percent, GB/s...).
type Point struct {
	X float64
	Y float64
	// Label optionally names a categorical x position (application or
	// traffic-profile names).
	Label string
}

// Series is one line/bar group of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a regenerated paper figure.
type Figure struct {
	// ID is the paper figure number ("fig5" ... "fig19").
	ID string
	// Title summarizes the experiment.
	Title string
	// XLabel and YLabel are the axis units.
	XLabel, YLabel string
	// Series holds the data, in the paper's legend order.
	Series []Series
}

// Options tunes how expensively the simulator-backed figures run.
type Options struct {
	// Scale multiplies the simulated durations; 1.0 reproduces the
	// defaults, smaller values trade statistical tightness for speed
	// (tests use ~0.2).
	Scale float64
	// Seed is the base seed every simulator replication derives its RNG
	// stream from (see seedFor). The default is 1; zero is a valid,
	// distinct seed when SeedSet marks it as deliberate.
	Seed int64
	// SeedSet marks Seed as explicitly chosen. Without it the zero
	// value of Options must mean "the documented default seed", so a
	// bare Seed: 0 is remapped to 1; with SeedSet true, Seed 0 is
	// honored as a real seed.
	SeedSet bool
	// Workers bounds the sweep engine's worker pool: how many figure
	// points / simulator replications regenerate concurrently. Zero or
	// negative means runtime.GOMAXPROCS(0). Figure output is
	// byte-identical at any worker count — every replication draws from
	// its own hashed RNG stream, so scheduling order cannot leak into
	// the data.
	Workers int
	// MaxEvents bounds every simulator replication's event count (zero =
	// unbounded). A replication that exceeds it aborts the whole figure
	// with sim.ErrBudgetExceeded, propagated out of the worker pool.
	MaxEvents uint64
	// Metrics, when set, receives sweep progress (points done/total per
	// figure), per-point wall-time histograms, and every replication's
	// simulator counters. Replications share the registry's series;
	// attaching it never changes figure output (observability consumes no
	// simulator randomness).
	Metrics *obs.Registry
	// Trace, when set, receives packet spans from every simulator
	// replication. With many replications sharing one bounded ring the
	// trace is a sample, not a full record; single-run tracing (the
	// `lognic trace` command) gives one coherent timeline.
	Trace *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = 1
	}
	o.SeedSet = true
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// simTime returns a scaled simulation duration.
func (o Options) simTime(base float64) float64 { return base * o.Scale }

// seedFor derives the RNG seed of one simulator replication from the base
// seed and the replication's (figure, point, replication) coordinates, by
// SplitMix64-style hashing (sim.SeedStream) — never by seed arithmetic.
// Hashed streams are what make the parallel sweep engine deterministic:
// every replication's randomness is fixed by its coordinates alone, so
// results cannot depend on worker count or scheduling order, and distinct
// coordinates never collide the way seed+k derivations do.
func (o Options) seedFor(figID string, point, rep int) int64 {
	return sim.SeedStream(o.Seed, sim.StreamTag(figID), uint64(point), uint64(rep))
}

// XPos is one row of a figure's table: a numeric x value, or a
// categorical position when Label is set.
type XPos struct {
	X     float64
	Label string
}

// XPositions lists the rows of the figure's table: every distinct x
// position of its points, in first-series order. Format, report.CSV and
// report.Markdown all walk these rows.
func (f Figure) XPositions() []XPos {
	var xs []XPos
	seen := map[XPos]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			k := XPos{p.X, p.Label}
			if !seen[k] {
				seen[k] = true
				xs = append(xs, k)
			}
		}
	}
	return xs
}

// At returns the series' y value at x position k; false when the series
// has no point there.
func (s Series) At(k XPos) (float64, bool) {
	for _, p := range s.Points {
		if p.X == k.X && p.Label == k.Label {
			return p.Y, true
		}
	}
	return 0, false
}

// Format renders the figure as an aligned text table, one row per x value,
// one column per series — the "same rows/series the paper reports".
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# x: %s, y: %s\n", f.XLabel, f.YLabel)
	fmt.Fprintf(&b, "%-16s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%20s", s.Name)
	}
	b.WriteByte('\n')
	for _, k := range f.XPositions() {
		if k.Label != "" {
			fmt.Fprintf(&b, "%-16s", k.Label)
		} else {
			fmt.Fprintf(&b, "%-16.6g", k.X)
		}
		for _, s := range f.Series {
			if v, ok := s.At(k); ok {
				fmt.Fprintf(&b, "%20.6g", v)
			} else {
				fmt.Fprintf(&b, "%20s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Generator regenerates one figure.
type Generator struct {
	ID   string
	Name string
	Run  func(Options) (Figure, error)
}

// All returns every figure generator in paper order.
func All() []Generator {
	return []Generator{
		{"fig5", "Accelerator throughput vs data access granularity", Fig5},
		{"fig6", "NVMe-oF latency vs throughput, three I/O profiles", Fig6},
		{"fig7", "4KB random IO bandwidth vs read ratio", Fig7},
		{"fig9", "Throughput vs IP1 parallelism at line rate", Fig9},
		{"fig10", "Achieved bandwidth vs packet size at line rate", Fig10},
		{"fig11", "Microservice throughput across allocation schemes", Fig11},
		{"fig12", "Microservice average latency across allocation schemes", Fig12},
		{"fig13", "NF chain throughput vs packet size across placements", Fig13},
		{"fig14", "NF chain average latency vs packet size across placements", Fig14},
		{"fig15", "PANIC bandwidth vs provisioned credits", Fig15},
		{"fig16", "PANIC steering latency: static vs LogNIC splits", Fig16},
		{"fig17", "PANIC steering throughput: static vs LogNIC splits", Fig17},
		{"fig18", "PANIC latency vs IP4 parallel degree", Fig18},
		{"fig19", "PANIC throughput vs IP4 parallel degree", Fig19},
	}
}

// ByID returns the generator for a figure id.
func ByID(id string) (Generator, error) {
	for _, g := range All() {
		if g.ID == id {
			return g, nil
		}
	}
	return Generator{}, fmt.Errorf("experiments: unknown figure %q", id)
}
