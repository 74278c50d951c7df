// Package report renders regenerated figures (internal/experiments) into
// CSV and Markdown, and builds the paper-vs-reproduction summary table
// that EXPERIMENTS.md records. It also computes the comparison statistics
// the paper quotes (model-vs-measured error bands, scheme-vs-scheme gains)
// directly from figure data, so the numbers in the documentation are
// regenerable rather than hand-copied.
package report

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"lognic/internal/experiments"
)

// CSV renders a figure as RFC-4180-ish CSV: one row per x position, one
// column per series. Missing points are empty cells.
func CSV(f experiments.Figure) string {
	var b strings.Builder
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	b.WriteString(joinCSV(cols))
	b.WriteByte('\n')
	for _, k := range f.XPositions() {
		row := []string{xLabel(k)}
		for _, s := range f.Series {
			if v, ok := s.At(k); ok {
				row = append(row, strconv.FormatFloat(v, 'g', 8, 64))
			} else {
				row = append(row, "")
			}
		}
		b.WriteString(joinCSV(row))
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders a figure as a GitHub-flavored Markdown table with a
// heading.
func Markdown(f experiments.Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", f.ID, f.Title)
	fmt.Fprintf(&b, "*x: %s, y: %s*\n\n", f.XLabel, f.YLabel)
	b.WriteString("| " + f.XLabel + " |")
	for _, s := range f.Series {
		b.WriteString(" " + s.Name + " |")
	}
	b.WriteByte('\n')
	b.WriteString("|---|")
	for range f.Series {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, k := range f.XPositions() {
		b.WriteString("| " + xLabel(k) + " |")
		for _, s := range f.Series {
			if v, ok := s.At(k); ok {
				fmt.Fprintf(&b, " %.6g |", v)
			} else {
				b.WriteString(" – |")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func xLabel(k experiments.XPos) string {
	if k.Label != "" {
		return k.Label
	}
	return strconv.FormatFloat(k.X, 'g', 8, 64)
}

func joinCSV(fields []string) string {
	out := make([]string, len(fields))
	for i, f := range fields {
		if strings.ContainsAny(f, ",\"\n") {
			f = "\"" + strings.ReplaceAll(f, "\"", "\"\"") + "\""
		}
		out[i] = f
	}
	return strings.Join(out, ",")
}

// MeanRelError is the mean |estimate−measured|/measured over the two
// series, paired by rank (Figure 6's estimate and measured curves share
// sweep positions, not exact x values). Zero-valued measured points are
// skipped.
func MeanRelError(estimate, measured experiments.Series) float64 {
	n := len(estimate.Points)
	if len(measured.Points) < n {
		n = len(measured.Points)
	}
	sum, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		if measured.Points[i].Y == 0 {
			continue
		}
		sum += math.Abs(estimate.Points[i].Y-measured.Points[i].Y) / measured.Points[i].Y
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// MeanGain is the mean relative improvement of series a over series b
// (a/b − 1), paired by rank.
func MeanGain(a, b experiments.Series) float64 {
	n := len(a.Points)
	if len(b.Points) < n {
		n = len(b.Points)
	}
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		if b.Points[i].Y == 0 {
			continue
		}
		sum += a.Points[i].Y/b.Points[i].Y - 1
	}
	return sum / float64(n)
}

// MeanSaving is the mean relative reduction of a versus b (1 − a/b),
// paired by rank.
func MeanSaving(a, b experiments.Series) float64 { return -MeanGain(a, b) }

// Row is one line of the paper-vs-reproduction summary.
type Row struct {
	// Figure is the paper figure id.
	Figure string
	// Metric describes the compared quantity.
	Metric string
	// Paper is the value the paper reports (free text: numbers or
	// qualitative anchors).
	Paper string
	// Repro is the value this reproduction measures.
	Repro string
	// Note qualifies the comparison.
	Note string
}

// Summary computes the headline paper-vs-reproduction comparisons from
// regenerated figures. Each study it reads is regenerated once with the
// given options; at full scale that takes about 35 s on 2 vCPUs.
func Summary(opts experiments.Options) ([]Row, error) {
	var rows []Row
	figs, err := experiments.Regenerate(opts, "fig5", "fig6", "fig7", "fig9",
		"fig11", "fig12", "fig13", "fig14", "fig16", "fig17")
	if err != nil {
		return nil, err
	}
	series := func(id, name string) experiments.Series {
		for _, s := range figs[id].Series {
			if s.Name == name {
				return s
			}
		}
		return experiments.Series{}
	}
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

	// Figure 5: interconnect-ceiling fractions at 16KB.
	var fracs []string
	for _, name := range []string{"crc", "3des", "md5", "hfa"} {
		s := series("fig5", name)
		fracs = append(fracs, pct(s.Points[len(s.Points)-1].Y/s.Points[0].Y))
	}
	rows = append(rows, Row{
		Figure: "fig5", Metric: "throughput fraction at 16KB granularity (crc/3des/md5/hfa)",
		Paper: "13.6% / 17.3% / 21.2% / 25.8%",
		Repro: strings.Join(fracs, " / "),
		Note:  "interconnect ceilings bind exactly as Equation 4 predicts",
	})

	// Figure 6: model-vs-measured latency error per profile.
	for i, prof := range []string{"4KB-RRD", "128KB-RRD", "4KB-SWR"} {
		e := MeanRelError(series("fig6", prof+"-LogNIC"), series("fig6", prof+"-Measured"))
		paper := []string{"0.89%", "0.24%", "2.75%"}[i]
		rows = append(rows, Row{
			Figure: "fig6", Metric: "mean latency estimation error, " + prof,
			Paper: paper, Repro: pct(e),
			Note: "simulator noise floor is higher than hardware averaging",
		})
	}

	// Figure 7: model underprediction across the mixed region.
	rdM, wrM := series("fig7", "RD-Measured"), series("fig7", "WR-Measured")
	rdL, wrL := series("fig7", "RD-LogNIC"), series("fig7", "WR-LogNIC")
	var worst float64
	for i := range rdM.Points {
		meas := rdM.Points[i].Y + wrM.Points[i].Y
		model := rdL.Points[i].Y + wrL.Points[i].Y
		if meas > 0 {
			if gap := 1 - model/meas; gap > worst {
				worst = gap
			}
		}
	}
	rows = append(rows, Row{
		Figure: "fig7", Metric: "peak model underprediction on mixed R/W (GC)",
		Paper: "14.6%", Repro: pct(worst),
		Note: "same sign and mechanism: GC invisible to the static model",
	})

	// Figure 9: saturation parallelism + model error.
	sat, err := experiments.Fig9SaturationCores()
	if err != nil {
		return nil, err
	}
	rows = append(rows, Row{
		Figure: "fig9", Metric: "cores to saturate md5/kasumi/hfa",
		Paper: "9 / 8 / 11",
		Repro: fmt.Sprintf("%d / %d / %d", sat["md5"], sat["kasumi"], sat["hfa"]),
		Note:  "exact",
	})
	e9 := MeanRelError(series("fig9", "md5-LogNIC"), series("fig9", "md5-Measured"))
	rows = append(rows, Row{
		Figure: "fig9", Metric: "mean throughput estimation error (md5 sweep)",
		Paper: "<0.1%", Repro: pct(e9), Note: "",
	})

	// Figures 11/12: allocation-scheme gains.
	g := experiments.GainsFromFigures(figs["fig11"], figs["fig12"])
	rows = append(rows,
		Row{Figure: "fig11", Metric: "LogNIC-Opt throughput gain vs RR / Equal",
			Paper: "34.8% / 36.4%",
			Repro: pct(g.ThroughputVsRR) + " / " + pct(g.ThroughputVsEqual), Note: ""},
		Row{Figure: "fig12", Metric: "LogNIC-Opt latency saving vs RR / Equal",
			Paper: "22.4% / 22.8%",
			Repro: pct(g.LatencyVsRR) + " / " + pct(g.LatencyVsEqual),
			Note:  "our baselines saturate their queues, so savings run larger"},
	)

	// Figures 13/14: placement gains.
	rows = append(rows,
		Row{Figure: "fig13", Metric: "LogNIC-opt throughput gain vs ARM-only / Accel-only",
			Paper: "81.9% / 21.7%",
			Repro: pct(MeanGain(series("fig13", "LogNIC-opt"), series("fig13", "ARM-only"))) + " / " +
				pct(MeanGain(series("fig13", "LogNIC-opt"), series("fig13", "Accelerator-only"))),
			Note: "same crossover: ARM wins at 64B, engines at MTU"},
		Row{Figure: "fig14", Metric: "LogNIC-opt latency saving vs ARM-only / Accel-only",
			Paper: "37.9% / 27.3%",
			Repro: pct(MeanSaving(series("fig14", "LogNIC-opt"), series("fig14", "ARM-only"))) + " / " +
				pct(MeanSaving(series("fig14", "LogNIC-opt"), series("fig14", "Accelerator-only"))),
			Note: ""},
	)

	// Figure 15: suggested credits.
	credits, err := experiments.Fig15SuggestedCredits()
	if err != nil {
		return nil, err
	}
	var cs []string
	keys := make([]string, 0, len(credits))
	for k := range credits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cs = append(cs, strconv.Itoa(credits[k]))
	}
	rows = append(rows, Row{
		Figure: "fig15", Metric: "suggested minimal credits (TP1..TP4)",
		Paper: "5 / 4 / 4 / 4", Repro: strings.Join(cs, " / "),
		Note: "same direction: well below the PANIC default of 8",
	})

	// Figures 16/17: steering wins.
	rows = append(rows,
		Row{Figure: "fig16", Metric: "LogNIC latency saving vs worst static split (10/70)",
			Paper: "57.2% (vs worst)", Repro: pct(MeanSaving(series("fig16", "LogNIC"), series("fig16", "10/70"))),
			Note: "LogNIC beats every static split on every profile"},
		Row{Figure: "fig17", Metric: "LogNIC throughput gain vs worst static split (10/70)",
			Paper: "159.1% (vs worst)", Repro: pct(MeanGain(series("fig17", "LogNIC"), series("fig17", "10/70"))),
			Note: ""},
	)

	// Figures 18/19: suggested parallel degrees.
	lanes, err := experiments.Fig18SuggestedLanes()
	if err != nil {
		return nil, err
	}
	rows = append(rows, Row{
		Figure: "fig18/19", Metric: "suggested IP4 parallel degree (50/50 and 80/20 splits)",
		Paper: "6 and 4",
		Repro: fmt.Sprintf("%d and %d", lanes["Traffic Profile 1"], lanes["Traffic Profile 2"]),
		Note:  "exact",
	})
	return rows, nil
}

// SummaryMarkdown renders the summary rows as a Markdown table.
func SummaryMarkdown(rows []Row) string {
	var b strings.Builder
	b.WriteString("| Figure | Metric | Paper | This repo | Note |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
			r.Figure, r.Metric, r.Paper, r.Repro, r.Note)
	}
	return b.String()
}
