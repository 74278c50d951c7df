package slo

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lognic/internal/obs"
)

// fakeFeed drives a Monitor deterministically: a settable clock plus a
// settable cumulative sample.
type fakeFeed struct {
	now    atomic.Int64 // unix nanos
	sample atomic.Value // Sample
}

func newFakeFeed() *fakeFeed {
	f := &fakeFeed{}
	f.now.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	f.sample.Store(Sample{})
	return f
}

func (f *fakeFeed) clock() time.Time        { return time.Unix(0, f.now.Load()) }
func (f *fakeFeed) source() Sample          { return f.sample.Load().(Sample) }
func (f *fakeFeed) advance(d time.Duration) { f.now.Add(int64(d)) }

func (f *fakeFeed) add(total, errors, slow uint64) {
	s := f.sample.Load().(Sample)
	s.Total += total
	s.Errors += errors
	s.Slow += slow
	f.sample.Store(s)
}

func testConfig(f *fakeFeed, reg *obs.Registry) Config {
	return Config{
		AvailabilityTarget: 0.999,
		LatencyTarget:      0.99,
		LatencyThreshold:   500 * time.Millisecond,
		ShortWindow:        5 * time.Minute,
		LongWindow:         time.Hour,
		Source:             f.source,
		Now:                f.clock,
		Registry:           reg,
	}
}

func TestEvaluateArithmetic(t *testing.T) {
	cfg := Config{AvailabilityTarget: 0.999, LatencyTarget: 0.99}
	// 1000 requests, 10 errors: availability 0.99, budget 0.001 → burn 10.
	w := Evaluate("run", time.Minute, 1000, 10, 0, cfg)
	if w.Availability != 0.99 {
		t.Fatalf("availability = %v", w.Availability)
	}
	if got := w.AvailabilityBurn; got < 9.99 || got > 10.01 {
		t.Fatalf("availability burn = %v, want ~10", got)
	}
	// 990 successes, 99 slow: compliance 0.9, budget 0.01 → burn 10.
	if got := w.LatencyBurn; got != 0 {
		t.Fatalf("latency burn with zero slow = %v", got)
	}
	w = Evaluate("run", time.Minute, 1000, 10, 99, cfg)
	if got := w.LatencyBurn; got < 9.99 || got > 10.01 {
		t.Fatalf("latency burn = %v, want ~10", got)
	}
}

func TestEvaluateIdleWindowBurnsNothing(t *testing.T) {
	w := Evaluate("5m", 0, 0, 0, 0, Config{AvailabilityTarget: 0.999, LatencyTarget: 0.99})
	if w.Availability != 1 || w.LatencyCompliance != 1 || w.AvailabilityBurn != 0 || w.LatencyBurn != 0 {
		t.Fatalf("idle window should be perfectly compliant: %+v", w)
	}
}

func TestVerdictNeedsBothWindows(t *testing.T) {
	cfg := Config{}.withDefaults()
	hot := WindowStatus{AvailabilityBurn: 20}
	cold := WindowStatus{AvailabilityBurn: 0.5}
	warm := WindowStatus{AvailabilityBurn: 5}
	if v := Verdict([]WindowStatus{hot, hot}, cfg); v != "critical" {
		t.Fatalf("both windows hot → %q, want critical", v)
	}
	if v := Verdict([]WindowStatus{hot, cold}, cfg); v != "ok" {
		t.Fatalf("one stale window should suppress the page: got %q", v)
	}
	if v := Verdict([]WindowStatus{warm, warm}, cfg); v != "warning" {
		t.Fatalf("both windows warm → %q, want warning", v)
	}
	if v := Verdict(nil, cfg); v != "ok" {
		t.Fatalf("no windows → %q, want ok", v)
	}
}

func TestMonitorWindowsAndRecovery(t *testing.T) {
	f := newFakeFeed()
	m := NewMonitor(testConfig(f, nil))

	// An hour of clean traffic: 100 req / 10s tick.
	for i := 0; i < 360; i++ {
		f.add(100, 0, 0)
		m.Poll()
		f.advance(10 * time.Second)
	}
	st := m.Status()
	if st.Verdict != "ok" {
		t.Fatalf("clean hour verdict = %q", st.Verdict)
	}
	if len(st.Windows) != 2 || st.Windows[0].Window != "5m" || st.Windows[1].Window != "1h" {
		t.Fatalf("windows = %+v", st.Windows)
	}

	// Five bad minutes: 20% errors → burn 200 in both windows' budget math?
	// Short window sees 20% errors (burn 200); the hour window dilutes it
	// to ~1.6% (burn ~16) — still past critical in both.
	for i := 0; i < 30; i++ {
		f.add(100, 20, 0)
		m.Poll()
		f.advance(10 * time.Second)
	}
	st = m.Status()
	if st.Verdict != "critical" {
		t.Fatalf("outage verdict = %q: %+v", st.Verdict, st.Windows)
	}
	short := st.Windows[0]
	if short.AvailabilityBurn < 150 {
		t.Fatalf("short-window burn = %v, want ~200", short.AvailabilityBurn)
	}

	// Ten clean minutes: the short window clears, the long window still
	// remembers — verdict must de-escalate (no stale page).
	for i := 0; i < 60; i++ {
		f.add(100, 0, 0)
		m.Poll()
		f.advance(10 * time.Second)
	}
	st = m.Status()
	if st.Verdict != "ok" {
		t.Fatalf("post-recovery verdict = %q: %+v", st.Verdict, st.Windows)
	}
	if st.Windows[1].Errors == 0 {
		t.Fatalf("long window should still contain the outage: %+v", st.Windows[1])
	}
}

func TestMonitorTrimsHistory(t *testing.T) {
	f := newFakeFeed()
	m := NewMonitor(testConfig(f, nil))
	for i := 0; i < 2000; i++ {
		f.add(1, 0, 0)
		m.Poll()
		f.advance(10 * time.Second)
	}
	m.mu.Lock()
	n := len(m.ring)
	m.mu.Unlock()
	// 1h window at 10s cadence needs ~360 samples; 2000 polls must not
	// accumulate unboundedly.
	if n > 400 {
		t.Fatalf("ring grew to %d samples", n)
	}
}

func TestMonitorExportsGauges(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFakeFeed()
	m := NewMonitor(testConfig(f, reg))
	f.add(100, 50, 0)
	m.Poll()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lognic_slo_burn_rate{objective="availability",window="5m"}`,
		`lognic_slo_burn_rate{objective="latency",window="1h"}`,
		`lognic_slo_compliance{objective="availability",window="5m"}`,
		`lognic_slo_target{objective="availability"} 0.999`,
		"lognic_slo_verdict",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if errs := obs.LintExposition([]byte(out)); errs != nil {
		t.Fatalf("slo exposition fails lint: %v", errs)
	}
}

// The gauges read the latest poll's judgement while the background loop
// replaces it.
func TestMonitorGaugesScrapeDuringPolls(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFakeFeed()
	cfg := testConfig(f, reg)
	cfg.SampleEvery = time.Millisecond
	m := NewMonitor(cfg)
	m.Start()
	defer m.Close()
	for i := 0; i < 50; i++ {
		f.add(10, 1, 0)
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMonitorStartClose(t *testing.T) {
	f := newFakeFeed()
	cfg := testConfig(f, nil)
	cfg.SampleEvery = time.Millisecond
	m := NewMonitor(cfg)
	m.Start()
	time.Sleep(5 * time.Millisecond)
	m.Close()
	m.mu.Lock()
	n := len(m.ring)
	m.mu.Unlock()
	if n == 0 {
		t.Fatal("background loop never polled")
	}
}

// Start takes its baseline before it returns: events counted the moment
// Start is back fall inside the windows, whenever the polling goroutine
// gets scheduled.
func TestMonitorStartBaseline(t *testing.T) {
	f := newFakeFeed()
	f.add(7, 0, 0) // history from before the monitor started
	cfg := testConfig(f, nil)
	cfg.SampleEvery = time.Hour // the loop never ticks during the test
	m := NewMonitor(cfg)
	m.Start()
	t.Cleanup(m.Close)
	f.add(100, 2, 0)
	f.advance(10 * time.Second)
	m.Poll()
	for _, w := range m.Status().Windows {
		if w.Total != 100 || w.Errors != 2 {
			t.Fatalf("%s window counts %d requests / %d errors, want 100 / 2: the baseline was taken late",
				w.Window, w.Total, w.Errors)
		}
	}
}
