package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"lognic/internal/obs"
)

// quick runs simulator-backed figures fast; statistical assertions below
// are tolerant accordingly.
var quick = Options{Scale: 0.15, Seed: 7}

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func series(t *testing.T, f Figure, name string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: series %q missing (have %v)", f.ID, name, func() []string {
		var out []string
		for _, s := range f.Series {
			out = append(out, s.Name)
		}
		return out
	}())
	return Series{}
}

func TestAllRegistryComplete(t *testing.T) {
	want := []string{"fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19"}
	var got []string
	for _, st := range Studies() {
		if st.Run == nil || len(st.Figures) == 0 {
			t.Errorf("study %v incomplete", st.Figures)
		}
		got = append(got, st.Figures...)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("studies emit %v, want %v once each in paper order", got, want)
	}
	studies, err := Resolve("fig12", "fig5", "fig11", "fig12")
	if err != nil {
		t.Fatal(err)
	}
	var firsts []string
	for _, st := range studies {
		firsts = append(firsts, st.Figures[0])
	}
	if strings.Join(firsts, " ") != "fig11 fig5" {
		t.Fatalf("Resolve(fig12 fig5 fig11 fig12) = studies %v, want [fig11 fig5]", firsts)
	}
	if _, err := Resolve("fig5", "fig99"); err == nil {
		t.Fatal("unknown id should fail")
	}
}

// TestRegenerateRunsEachStudyOnce regenerates all fourteen figures with a
// registry attached: every study's sweep must run exactly once, so each
// lognic_sweep_points_total series equals that study's task count.
func TestRegenerateRunsEachStudyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure")
	}
	reg := obs.NewRegistry()
	var ids []string
	for _, st := range Studies() {
		ids = append(ids, st.Figures...)
	}
	figs, err := Regenerate(Options{Scale: 0.02, Seed: 1, Metrics: reg}, ids...)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if figs[id].ID != id {
			t.Errorf("figure %s missing (got id %q)", id, figs[id].ID)
		}
	}
	// Every sweep's task count, from the figures' grids. A study run
	// twice would double its series (fig1112 would read 10).
	want := map[string]float64{
		"fig5":         4,      // accelerators
		"fig6.ramp":    3,      // I/O profiles
		"fig6":         3 * 6,  // profiles × load fractions
		"fig7":         11,     // read ratios
		"fig9":         3 * 16, // engines × cores
		"fig10":        6,      // accelerators
		"fig1112":      5,      // E3 workloads
		"fig1314":      6,      // packet sizes
		"fig15.prep":   4,      // traffic profiles
		"fig15":        4 * 8,  // profiles × credits
		"fig1617.prep": 3,      // packet sizes
		"fig1617":      3 * 5,  // sizes × splits
		"fig1819":      2 * 8,  // profiles × lanes
	}
	got := map[string]float64{}
	for _, s := range reg.Gather() {
		if s.Name == "lognic_sweep_points_total" {
			got[s.Labels["fig"]] = s.Value
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lognic_sweep_points_total by fig = %v, want %v", got, want)
	}
}

func TestFig5Anchors(t *testing.T) {
	fig, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper anchor: at 16KB granularity CRC/3DES/MD5/HFA reach
	// 13.6/17.3/21.2/25.8% of their small-granularity maxima.
	want := map[string]float64{"crc": 0.136, "3des": 0.173, "md5": 0.212, "hfa": 0.258}
	for name, frac := range want {
		s := series(t, fig, name)
		max := s.Points[0].Y
		last := s.Points[len(s.Points)-1].Y
		if s.Points[len(s.Points)-1].X != 16384 {
			t.Fatalf("%s: last point is %v, want 16384", name, s.Points[len(s.Points)-1].X)
		}
		if !approx(last/max, frac, 0.02) {
			t.Errorf("%s: 16KB fraction %.3f, want %.3f", name, last/max, frac)
		}
		// Monotone non-increasing with granularity.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y+1e-9 {
				t.Errorf("%s: throughput increased with granularity at %v", name, s.Points[i].X)
			}
		}
	}
}

func TestFig6ModelTracksMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed figure")
	}
	fig, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(fig.Series))
	}
	for _, prof := range []string{"4KB-RRD", "128KB-RRD", "4KB-SWR"} {
		meas := series(t, fig, prof+"-Measured")
		model := series(t, fig, prof+"-LogNIC")
		if len(meas.Points) != len(model.Points) {
			t.Fatalf("%s: point count mismatch", prof)
		}
		// Mean relative latency error across the load sweep stays small
		// (the paper quotes 0.24–2.75%; our sim has finite-sample noise).
		sum := 0.0
		for i := range meas.Points {
			sum += math.Abs(model.Points[i].Y-meas.Points[i].Y) / meas.Points[i].Y
		}
		mean := sum / float64(len(meas.Points))
		if mean > 0.20 {
			t.Errorf("%s: mean latency error %.1f%%, want < 20%%", prof, mean*100)
		}
		// Latency grows with throughput (saturation shape).
		first, last := meas.Points[0].Y, meas.Points[len(meas.Points)-1].Y
		if last <= first {
			t.Errorf("%s: measured latency did not grow toward saturation", prof)
		}
	}
}

func TestFig7UnderpredictionSign(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed figure")
	}
	fig, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	rdM := series(t, fig, "RD-Measured")
	rdL := series(t, fig, "RD-LogNIC")
	wrM := series(t, fig, "WR-Measured")
	wrL := series(t, fig, "WR-LogNIC")
	// In the mixed region the static model must *under*-predict the
	// GC-coupled measurement (paper: ~14.6% lower).
	var gapSum float64
	var n int
	for i := range rdM.Points {
		r := rdM.Points[i].X / 100
		if r < 0.25 || r > 0.85 {
			continue
		}
		total := rdM.Points[i].Y + wrM.Points[i].Y
		model := rdL.Points[i].Y + wrL.Points[i].Y
		if model > total*1.02 {
			t.Errorf("read%%=%v: model %v overpredicts measured %v", rdM.Points[i].X, model, total)
		}
		gapSum += 1 - model/total
		n++
	}
	gap := gapSum / float64(n)
	if gap < 0.05 || gap > 0.30 {
		t.Errorf("mean underprediction %.1f%%, want roughly 5–30%% (paper 14.6%%)", gap*100)
	}
	// Read bandwidth grows with read ratio; write shrinks.
	last := len(rdM.Points) - 1
	if !(rdM.Points[last].Y > rdM.Points[0].Y) || !(wrM.Points[0].Y > wrM.Points[last].Y) {
		t.Error("read/write bandwidth trends wrong")
	}
}

func TestFig9SaturationAnchors(t *testing.T) {
	sat, err := Fig9SaturationCores()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"md5": 9, "kasumi": 8, "hfa": 11}
	for name, cores := range want {
		if sat[name] != cores {
			t.Errorf("%s saturates at %d cores, paper says %d", name, sat[name], cores)
		}
	}
}

func TestFig9ModelMatchesMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed figure")
	}
	fig, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"md5", "kasumi", "hfa"} {
		meas := series(t, fig, name+"-Measured")
		model := series(t, fig, name+"-LogNIC")
		for i := range meas.Points {
			if !approx(meas.Points[i].Y, model.Points[i].Y, 0.08) {
				t.Errorf("%s at %v cores: measured %v vs model %v", name,
					meas.Points[i].X, meas.Points[i].Y, model.Points[i].Y)
			}
		}
	}
}

func TestFig10MinLaw(t *testing.T) {
	fig, err := Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(fig.Series))
	}
	for _, s := range fig.Series {
		// Bandwidth grows with packet size and never exceeds 25 Gbps.
		for i, p := range s.Points {
			if p.Y > 25+1e-9 {
				t.Errorf("%s: %v Gbps exceeds line rate", s.Name, p.Y)
			}
			if i > 0 && p.Y < s.Points[i-1].Y-1e-9 {
				t.Errorf("%s: bandwidth fell with packet size", s.Name)
			}
		}
	}
	// CRC reaches line rate at MTU; HFA does not.
	crc := series(t, fig, "crc")
	hfa := series(t, fig, "hfa")
	if !approx(crc.Points[len(crc.Points)-1].Y, 25, 1e-6) {
		t.Errorf("crc at MTU = %v, want 25", crc.Points[len(crc.Points)-1].Y)
	}
	if hfa.Points[len(hfa.Points)-1].Y > 20 {
		t.Errorf("hfa at MTU = %v, should stay below line rate", hfa.Points[len(hfa.Points)-1].Y)
	}
}

func TestFig11Fig12Gains(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed figure")
	}
	f11, f12, err := fig1112(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11.Series) != 3 || len(f12.Series) != 3 {
		t.Fatal("expected 3 schemes")
	}
	if len(f11.Series[0].Points) != 5 {
		t.Fatalf("expected 5 applications, got %d", len(f11.Series[0].Points))
	}
	g := GainsFromFigures(f11, f12)
	// Paper: +34.8%/+36.4% throughput, −22.4%/−22.8% latency. Require the
	// right direction and a comparable magnitude band for throughput.
	if g.ThroughputVsRR < 0.15 || g.ThroughputVsRR > 0.60 {
		t.Errorf("throughput gain vs RR = %.1f%%, want 15–60%%", g.ThroughputVsRR*100)
	}
	if g.ThroughputVsEqual < 0.15 || g.ThroughputVsEqual > 0.60 {
		t.Errorf("throughput gain vs Equal = %.1f%%, want 15–60%%", g.ThroughputVsEqual*100)
	}
	if g.LatencyVsRR <= 0 || g.LatencyVsEqual <= 0 {
		t.Errorf("latency savings must be positive: %.1f%% / %.1f%%",
			g.LatencyVsRR*100, g.LatencyVsEqual*100)
	}
}

func TestFig13Fig14PlacementCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed figure")
	}
	f13, f14, err := fig1314(quick)
	if err != nil {
		t.Fatal(err)
	}
	arm := series(t, f13, "ARM-only")
	acc := series(t, f13, "Accelerator-only")
	opt := series(t, f13, "LogNIC-opt")
	n := len(arm.Points)
	// At 64B ARM wins over accelerators (transfer overheads dominate); at
	// MTU the accelerators win (per-byte work offloaded).
	if !(arm.Points[0].Y > acc.Points[0].Y) {
		t.Errorf("at 64B ARM-only (%v) should beat Accelerator-only (%v)",
			arm.Points[0].Y, acc.Points[0].Y)
	}
	if !(acc.Points[n-1].Y > arm.Points[n-1].Y) {
		t.Errorf("at MTU Accelerator-only (%v) should beat ARM-only (%v)",
			acc.Points[n-1].Y, arm.Points[n-1].Y)
	}
	// LogNIC-opt is never materially worse than either baseline.
	for i := 0; i < n; i++ {
		best := math.Max(arm.Points[i].Y, acc.Points[i].Y)
		if opt.Points[i].Y < 0.93*best {
			t.Errorf("at %vB LogNIC-opt %v below best baseline %v",
				opt.Points[i].X, opt.Points[i].Y, best)
		}
	}
	// Latency: opt at most ~ the better baseline at the extremes.
	armL := series(t, f14, "ARM-only")
	accL := series(t, f14, "Accelerator-only")
	optL := series(t, f14, "LogNIC-opt")
	if optL.Points[0].Y > 1.1*math.Min(armL.Points[0].Y, accL.Points[0].Y) {
		t.Errorf("64B latency: opt %v worse than both baselines", optL.Points[0].Y)
	}
	if optL.Points[n-1].Y > 1.1*math.Min(armL.Points[n-1].Y, accL.Points[n-1].Y) {
		t.Errorf("MTU latency: opt %v worse than both baselines", optL.Points[n-1].Y)
	}
}

func TestFig15CreditKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed figure")
	}
	fig, err := Fig15(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 8 {
			t.Fatalf("%s: %d points, want 8", s.Name, len(s.Points))
		}
		// Bandwidth improves early then flattens: the 1→4 gain dominates
		// the 5→8 gain.
		early := s.Points[3].Y - s.Points[0].Y
		late := s.Points[7].Y - s.Points[4].Y
		if early <= 0 {
			t.Errorf("%s: no early credit gain", s.Name)
		}
		if late > early {
			t.Errorf("%s: late gain %v exceeds early gain %v (no knee)", s.Name, late, early)
		}
	}
}

func TestFig15SuggestedCredits(t *testing.T) {
	credits, err := Fig15SuggestedCredits()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range credits {
		// Paper suggests 5/4/4/4: fewer than the PANIC default of 8.
		if c >= 8 || c < 3 {
			t.Errorf("%s: suggested %d credits, want within 3..7", name, c)
		}
	}
}

func TestFig16Fig17SteeringWins(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed figure")
	}
	f16, f17, err := fig1617(quick)
	if err != nil {
		t.Fatal(err)
	}
	logn16 := series(t, f16, "LogNIC")
	logn17 := series(t, f17, "LogNIC")
	for ti := range logn16.Points {
		for _, static := range []string{"10/70", "30/50", "50/30", "70/10"} {
			s16 := series(t, f16, static)
			s17 := series(t, f17, static)
			if logn16.Points[ti].Y > s16.Points[ti].Y*1.05 {
				t.Errorf("%s: LogNIC latency %v worse than %s (%v)",
					logn16.Points[ti].Label, logn16.Points[ti].Y, static, s16.Points[ti].Y)
			}
			if logn17.Points[ti].Y < s17.Points[ti].Y*0.95 {
				t.Errorf("%s: LogNIC throughput %v worse than %s (%v)",
					logn17.Points[ti].Label, logn17.Points[ti].Y, static, s17.Points[ti].Y)
			}
		}
	}
}

func TestFig18Fig19ParallelismShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed figure")
	}
	f18, f19, err := fig1819(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []string{"Traffic Profile 1", "Traffic Profile 2"} {
		lat := series(t, f18, tp)
		thr := series(t, f19, tp)
		// Latency improves substantially from 1 lane to 8.
		if !(lat.Points[0].Y > 1.5*lat.Points[7].Y) {
			t.Errorf("%s: latency should drop strongly with lanes: %v -> %v",
				tp, lat.Points[0].Y, lat.Points[7].Y)
		}
		// Throughput grows then saturates: the final step adds <5%.
		if !(thr.Points[7].Y > thr.Points[0].Y) {
			t.Errorf("%s: throughput should grow with lanes", tp)
		}
		lastGain := thr.Points[7].Y/thr.Points[6].Y - 1
		if lastGain > 0.05 {
			t.Errorf("%s: still gaining %.1f%% at 8 lanes (no saturation)", tp, lastGain*100)
		}
	}
}

func TestFig18SuggestedLanesMatchPaper(t *testing.T) {
	lanes, err := Fig18SuggestedLanes()
	if err != nil {
		t.Fatal(err)
	}
	if lanes["Traffic Profile 1"] != 6 {
		t.Errorf("profile 1 lanes = %d, paper says 6", lanes["Traffic Profile 1"])
	}
	if lanes["Traffic Profile 2"] != 4 {
		t.Errorf("profile 2 lanes = %d, paper says 4", lanes["Traffic Profile 2"])
	}
}

func TestFigureFormat(t *testing.T) {
	fig := Figure{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Y: 2}, {X: 2, Y: 3}}},
			{Name: "b", Points: []Point{{X: 1, Y: 4}}},
		},
	}
	out := fig.Format()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "demo") {
		t.Fatal("header missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header(2) + column row + 2 x rows
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "-") {
		t.Fatalf("missing-value dash expected in %q", lines[4])
	}
	// Labeled points use the label column.
	figL := Figure{
		ID: "figY", Series: []Series{{Name: "s", Points: []Point{{X: 0, Label: "app", Y: 1}}}},
	}
	if !strings.Contains(figL.Format(), "app") {
		t.Fatal("label missing from output")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Seed != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	if !o.SeedSet {
		t.Fatal("withDefaults must mark the seed as resolved")
	}
	if o.Workers < 1 {
		t.Fatalf("default workers = %d, want >= 1 (GOMAXPROCS)", o.Workers)
	}
	if w := (Options{Workers: 3}).withDefaults().Workers; w != 3 {
		t.Fatalf("explicit workers = %d, want 3", w)
	}
	if s := (Options{Seed: 9}).withDefaults().Seed; s != 9 {
		t.Fatalf("explicit seed = %d, want 9", s)
	}
	if got := (Options{Scale: 2}).simTime(0.1); !approx(got, 0.2, 1e-12) {
		t.Fatalf("simTime = %v", got)
	}
}
