// Package slo turns raw request counters into service-level-objective
// judgements: windowed availability and latency compliance, multi-window
// burn rates, and an ok/warning/critical verdict.
//
// The model is the standard error-budget one. An objective like "99.9%
// of requests succeed" leaves a budget of 0.1%; the burn rate is how
// fast the service is spending that budget (burn 1.0 = exactly on
// target, burn 14.4 = a 30-day budget gone in ~2 days). Following the
// multi-window pattern from the SRE workbook, a verdict only escalates
// when BOTH the short window (is it happening now?) and the long window
// (is it material?) are burning, which suppresses both stale pages and
// one-sample blips.
//
// The package is deliberately source-agnostic: a Monitor polls a
// cumulative-counter snapshot function on a fixed cadence and keeps a
// time-stamped ring of samples, so it works identically over
// lognic-serve's live request counters and lognic-storm's run totals.
package slo

import (
	"strings"
	"sync"
	"time"

	"lognic/internal/obs"
)

// Sample is a cumulative-counter snapshot: totals since process start,
// monotonically non-decreasing.
type Sample struct {
	// Total counts requests that consumed error budget when they failed —
	// admitted requests, typically excluding load-shed (429) responses.
	Total uint64
	// Errors counts requests that failed (5xx).
	Errors uint64
	// Slow counts successful requests that exceeded the latency
	// threshold.
	Slow uint64
}

// Config describes the objectives and sampling cadence.
type Config struct {
	// AvailabilityTarget is the fraction of requests that must succeed,
	// e.g. 0.999. Zero disables the availability objective.
	AvailabilityTarget float64
	// LatencyTarget is the fraction of successful requests that must
	// finish under LatencyThreshold, e.g. 0.99. Zero disables it.
	LatencyTarget float64
	// LatencyThreshold is the latency objective's cutoff.
	LatencyThreshold time.Duration
	// ShortWindow and LongWindow are the burn-rate windows
	// (default 5m / 1h).
	ShortWindow, LongWindow time.Duration
	// SampleEvery is the polling cadence (default 10s).
	SampleEvery time.Duration
	// CriticalBurn and WarningBurn are the verdict thresholds applied to
	// both windows (defaults 14.4 and 3).
	CriticalBurn, WarningBurn float64
	// Source returns the current cumulative counters.
	Source func() Sample
	// Registry, when set, receives lognic_slo_* gauges refreshed on
	// every poll.
	Registry *obs.Registry
	// Now is the clock (default time.Now); injectable for tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ShortWindow <= 0 {
		c.ShortWindow = 5 * time.Minute
	}
	if c.LongWindow <= 0 {
		c.LongWindow = time.Hour
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 10 * time.Second
	}
	if c.CriticalBurn <= 0 {
		c.CriticalBurn = 14.4
	}
	if c.WarningBurn <= 0 {
		c.WarningBurn = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// WindowStatus is one objective evaluated over one window.
type WindowStatus struct {
	// Window is the human label ("5m", "1h", "run").
	Window string `json:"window"`
	// Seconds is the window's actual span (shorter than nominal until
	// enough history accumulates).
	Seconds float64 `json:"seconds"`
	// Total/Errors/Slow are the deltas observed inside the window.
	Total  uint64 `json:"total"`
	Errors uint64 `json:"errors"`
	Slow   uint64 `json:"slow"`
	// Availability is the fraction of requests that succeeded (1 when
	// the window saw no traffic: an idle service burns no budget).
	Availability float64 `json:"availability"`
	// LatencyCompliance is the fraction of successes under threshold.
	LatencyCompliance float64 `json:"latency_compliance"`
	// AvailabilityBurn and LatencyBurn are budget burn rates
	// (1.0 = exactly on target).
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
}

// Status is the full SLO judgement served at /v1/slo.
type Status struct {
	AvailabilityTarget      float64        `json:"availability_target"`
	LatencyTarget           float64        `json:"latency_target"`
	LatencyThresholdSeconds float64        `json:"latency_threshold_seconds"`
	Windows                 []WindowStatus `json:"windows"`
	// Verdict is "ok", "warning" or "critical": the worst level at which
	// every window's burn rate clears that level's threshold.
	Verdict string `json:"verdict"`
}

// Evaluate scores one window's deltas against the objectives. Exposed so
// lognic-storm can grade a whole run with the same arithmetic the serve
// monitor applies to its 5m/1h windows.
func Evaluate(label string, span time.Duration, total, errors, slow uint64, cfg Config) WindowStatus {
	cfg = cfg.withDefaults()
	w := WindowStatus{
		Window: label, Seconds: span.Seconds(),
		Total: total, Errors: errors, Slow: slow,
		Availability: 1, LatencyCompliance: 1,
	}
	if total > 0 {
		w.Availability = 1 - float64(errors)/float64(total)
	}
	if ok := total - errors; ok > 0 {
		w.LatencyCompliance = 1 - float64(slow)/float64(ok)
	}
	if cfg.AvailabilityTarget > 0 && cfg.AvailabilityTarget < 1 {
		w.AvailabilityBurn = (1 - w.Availability) / (1 - cfg.AvailabilityTarget)
	}
	if cfg.LatencyTarget > 0 && cfg.LatencyTarget < 1 {
		w.LatencyBurn = (1 - w.LatencyCompliance) / (1 - cfg.LatencyTarget)
	}
	return w
}

// Verdict applies the multi-window rule: critical when every window
// burns at or above CriticalBurn on some objective, warning when every
// window reaches WarningBurn, ok otherwise.
func Verdict(windows []WindowStatus, cfg Config) string {
	cfg = cfg.withDefaults()
	if len(windows) == 0 {
		return "ok"
	}
	atLeast := func(burn float64) bool {
		for _, w := range windows {
			if w.AvailabilityBurn < burn && w.LatencyBurn < burn {
				return false
			}
		}
		return true
	}
	switch {
	case atLeast(cfg.CriticalBurn):
		return "critical"
	case atLeast(cfg.WarningBurn):
		return "warning"
	default:
		return "ok"
	}
}

// sample is one timestamped counter snapshot in the ring.
type sample struct {
	t time.Time
	s Sample
}

// Monitor polls a counter source and serves windowed SLO status. Safe
// for concurrent use.
type Monitor struct {
	cfg Config

	mu   sync.Mutex
	ring []sample
	last Status // the latest Poll's judgement, read by the gauges

	stop chan struct{}
	done chan struct{}
}

// NewMonitor builds a monitor. Call Start to begin background polling,
// or drive it manually with Poll (tests, one-shot tools).
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	if cfg.Registry != nil {
		m.registerGauges(cfg.Registry)
	}
	return m
}

// registerGauges exports the latest poll's judgement as gauges read at
// scrape time: the verdict, each objective's burn rate and compliance
// per window, and the configured targets.
func (m *Monitor) registerGauges(reg *obs.Registry) {
	latest := func(read func(Status) float64) func() float64 {
		return func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return read(m.last)
		}
	}
	reg.GaugeFunc("lognic_slo_verdict",
		"current SLO verdict as a number: 0 ok, 1 warning, 2 critical", nil,
		latest(func(st Status) float64 {
			return map[string]float64{"ok": 0, "warning": 1, "critical": 2}[st.Verdict]
		}))
	for i, window := range []time.Duration{m.cfg.ShortWindow, m.cfg.LongWindow} {
		gauge := func(name, help, objective string, read func(WindowStatus) float64) {
			reg.GaugeFunc(name, help, obs.Labels{"objective": objective, "window": windowLabel(window)},
				latest(func(st Status) float64 {
					if i >= len(st.Windows) {
						return 0 // before the first poll
					}
					return read(st.Windows[i])
				}))
		}
		const burnHelp = "error-budget burn rate per objective and window (1 = exactly on target)"
		const complianceHelp = "fraction of requests meeting the objective, per window"
		gauge("lognic_slo_burn_rate", burnHelp, "availability", func(w WindowStatus) float64 { return w.AvailabilityBurn })
		gauge("lognic_slo_burn_rate", burnHelp, "latency", func(w WindowStatus) float64 { return w.LatencyBurn })
		gauge("lognic_slo_compliance", complianceHelp, "availability", func(w WindowStatus) float64 { return w.Availability })
		gauge("lognic_slo_compliance", complianceHelp, "latency", func(w WindowStatus) float64 { return w.LatencyCompliance })
	}
	for objective, target := range map[string]float64{"availability": m.cfg.AvailabilityTarget, "latency": m.cfg.LatencyTarget} {
		reg.GaugeFunc("lognic_slo_target", "configured objective target fraction",
			obs.Labels{"objective": objective}, func() float64 { return target })
	}
}

// Start takes the baseline sample, then launches the background polling
// loop. The baseline is taken before Start returns, so every event the
// source counts after that falls inside the windows.
func (m *Monitor) Start() {
	m.Poll()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(m.cfg.SampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.Poll()
			}
		}
	}()
}

// Close stops the polling loop (idempotent is not required; call once).
func (m *Monitor) Close() {
	close(m.stop)
	<-m.done
}

// Poll takes one sample now and judges the windows again; the gauges
// report that judgement until the next poll.
func (m *Monitor) Poll() {
	if m.cfg.Source == nil {
		return
	}
	now := m.cfg.Now()
	s := m.cfg.Source()
	m.mu.Lock()
	m.ring = append(m.ring, sample{t: now, s: s})
	// Trim history beyond the long window (keep one extra sample so the
	// window's left edge interpolates to a real snapshot).
	cutoff := now.Add(-m.cfg.LongWindow)
	firstKept := 0
	for i, smp := range m.ring {
		if !smp.t.Before(cutoff) {
			firstKept = i
			break
		}
		firstKept = i
	}
	if firstKept > 0 {
		m.ring = append(m.ring[:0], m.ring[firstKept:]...)
	}
	m.mu.Unlock()
	st := m.Status()
	m.mu.Lock()
	m.last = st
	m.mu.Unlock()
}

// windowDelta finds the deltas across the trailing window ending at the
// newest sample.
func (m *Monitor) windowDelta(window time.Duration) (span time.Duration, total, errors, slow uint64) {
	if len(m.ring) == 0 {
		return 0, 0, 0, 0
	}
	newest := m.ring[len(m.ring)-1]
	base := m.ring[0]
	cutoff := newest.t.Add(-window)
	for _, smp := range m.ring {
		if smp.t.After(cutoff) {
			break
		}
		base = smp
	}
	span = newest.t.Sub(base.t)
	sub := func(a, b uint64) uint64 { // counters are monotone; guard anyway
		if a < b {
			return 0
		}
		return a - b
	}
	return span, sub(newest.s.Total, base.s.Total), sub(newest.s.Errors, base.s.Errors), sub(newest.s.Slow, base.s.Slow)
}

// Status evaluates both windows from the current ring.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	shortSpan, st, se, ss := m.windowDelta(m.cfg.ShortWindow)
	longSpan, lt, le, ls := m.windowDelta(m.cfg.LongWindow)
	m.mu.Unlock()
	windows := []WindowStatus{
		Evaluate(windowLabel(m.cfg.ShortWindow), shortSpan, st, se, ss, m.cfg),
		Evaluate(windowLabel(m.cfg.LongWindow), longSpan, lt, le, ls, m.cfg),
	}
	return Status{
		AvailabilityTarget:      m.cfg.AvailabilityTarget,
		LatencyTarget:           m.cfg.LatencyTarget,
		LatencyThresholdSeconds: m.cfg.LatencyThreshold.Seconds(),
		Windows:                 windows,
		Verdict:                 Verdict(windows, m.cfg),
	}
}

// windowLabel renders a duration compactly: "5m", "1h", "90s".
func windowLabel(d time.Duration) string {
	s := d.String()
	for _, suffix := range []string{"0s", "0m"} {
		s = strings.TrimSuffix(s, suffix)
	}
	if s == "" {
		s = d.String()
	}
	return s
}
