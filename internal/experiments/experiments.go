// Package experiments regenerates every result figure of the paper's
// evaluation (§4): each Study reproduces one experiment's figure data
// series, pairing "Measured" runs of the discrete-event simulator (this
// repository's hardware substitute) with "LogNIC" estimates from the
// analytical model. cmd/lognic-bench prints them, the root bench_test.go
// wraps them in testing.B benchmarks, and EXPERIMENTS.md records the
// paper-vs-repo comparison.
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

// Study regenerates one experiment of the paper's evaluation. Some
// experiments are plotted twice, once as throughput and once as latency
// (Figures 11/12, 13/14, 16/17, 18/19); their study runs the sweep once and
// emits both figures.
type Study struct {
	// Figures are the ids of the figures Run returns, in that order.
	Figures []string
	Run     func(Options) ([]Figure, error)
}

// Studies returns every study, in paper order of the figures they emit.
func Studies() []Study {
	return []Study{
		{[]string{"fig5"}, one(Fig5)},
		{[]string{"fig6"}, one(Fig6)},
		{[]string{"fig7"}, one(Fig7)},
		{[]string{"fig9"}, one(Fig9)},
		{[]string{"fig10"}, one(Fig10)},
		{[]string{"fig11", "fig12"}, two(fig1112)},
		{[]string{"fig13", "fig14"}, two(fig1314)},
		{[]string{"fig15"}, one(Fig15)},
		{[]string{"fig16", "fig17"}, two(fig1617)},
		{[]string{"fig18", "fig19"}, two(fig1819)},
	}
}

// one and two adapt a study's figure function to Study.Run.
func one(run func(Options) (Figure, error)) func(Options) ([]Figure, error) {
	return func(o Options) ([]Figure, error) {
		f, err := run(o)
		if err != nil {
			return nil, err
		}
		return []Figure{f}, nil
	}
}

func two(run func(Options) (Figure, Figure, error)) func(Options) ([]Figure, error) {
	return func(o Options) ([]Figure, error) {
		f1, f2, err := run(o)
		if err != nil {
			return nil, err
		}
		return []Figure{f1, f2}, nil
	}
}

// Resolve returns the studies that emit the given figure ids, each study
// once, in the order the ids first name them.
func Resolve(ids ...string) ([]Study, error) {
	all := Studies()
	index := map[string]int{}
	for i, st := range all {
		for _, id := range st.Figures {
			index[id] = i
		}
	}
	var out []Study
	seen := map[int]bool{}
	for _, id := range ids {
		i, ok := index[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown figure %q", id)
		}
		if !seen[i] {
			seen[i] = true
			out = append(out, all[i])
		}
	}
	return out, nil
}

// Regenerate runs each study that emits one of ids once and returns its
// figures keyed by id. A study's sibling figures come along: asking for
// fig11 also returns fig12.
func Regenerate(opts Options, ids ...string) (map[string]Figure, error) {
	studies, err := Resolve(ids...)
	if err != nil {
		return nil, err
	}
	figs := map[string]Figure{}
	for _, st := range studies {
		out, err := st.Run(opts)
		if err != nil {
			return nil, err
		}
		for _, f := range out {
			figs[f.ID] = f
		}
	}
	return figs, nil
}
