// Package storm is a fleet load generator for lognic-serve: N workers
// drive a generated spec corpus against one or many replicas in a closed
// loop (back-to-back, measures capacity) or an open loop (paced arrivals
// at an offered rate, measures behavior under overload), honoring the
// daemon's 429+Retry-After backpressure and reporting throughput, error
// and shed rates, and HDR-style latency percentiles per endpoint.
package storm

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"lognic/internal/obs"
	"lognic/internal/obs/slo"
)

// Config is one load step.
type Config struct {
	// Targets are replica base URLs (e.g. http://127.0.0.1:8080). At least
	// one is required.
	Targets []string
	// Workers is the number of concurrent request loops (default 8). A
	// step runs at least one per tenant, so light tenants can add some.
	Workers int
	// Duration is the step's wall time (default 10s).
	Duration time.Duration
	// Rate is the offered arrival rate in requests/s. 0 runs a closed
	// loop: every worker issues back-to-back requests, measuring the
	// fleet's capacity rather than its behavior at a fixed load.
	Rate float64
	// Routing picks the replica per request: "rr" (round-robin, default)
	// or "hash" (affinity on the canonical spec hash, so each spec's
	// cache entry lives on exactly one replica).
	Routing string
	// Corpus is the request mix (BuildCorpus).
	Corpus []Item
	// Client overrides the HTTP client (tests); nil builds one with
	// per-host connection reuse sized to Workers.
	Client *http.Client
	// Registry, when non-nil, receives storm_* counters after the step.
	Registry *obs.Registry
	// TraceSample is the fraction of requests that originate a W3C trace
	// context (0 disables, 1 traces everything). A sampled request sends
	// a traceparent header and records a client span in Tracer, so the
	// daemon's /v1/trace export and the client spans merge into one tree.
	TraceSample float64
	// Tracer receives the client spans of sampled requests. Nil with
	// TraceSample > 0 builds one at the default capacity.
	Tracer *obs.Tracer
	// SLO grades the whole run as a single window with slo.Evaluate —
	// the same arithmetic lognic-serve applies to its 5m/1h windows.
	// Zero targets disable grading.
	SLO slo.Config
	// Tenants, when non-empty, runs a multi-tenant step: each tenant's
	// requests carry its name in X-Lognic-Tenant and it receives a
	// weight-proportional share of the workers (closed loop) or of the
	// offered rate (open loop, with a weight-proportional worker split
	// absorbing it). The report grows per-tenant rows, each graded
	// against the same SLO config.
	Tenants []TenantLoad
}

// TenantLoad is one synthetic tenant of a multi-tenant run.
type TenantLoad struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Routing == "" {
		c.Routing = "rr"
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        c.Workers * 2,
				MaxIdleConnsPerHost: c.Workers * 2,
			},
			Timeout: 30 * time.Second,
		}
	}
	if c.TraceSample > 0 && c.Tracer == nil {
		c.Tracer = obs.NewTracer(0)
	}
	if c.SLO.LatencyThreshold <= 0 {
		c.SLO.LatencyThreshold = time.Second
	}
	return c
}

// LatencySummary is one endpoint's latency distribution, milliseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Report is one load step's outcome.
type Report struct {
	// OfferedRPS is the configured arrival rate; 0 means closed loop.
	OfferedRPS float64 `json:"offered_rps"`
	// DurationSec is the measured wall time of the step.
	DurationSec float64 `json:"duration_sec"`
	// Completed counts 200 responses; Throughput is Completed/Duration.
	// CompletedEvals weights each response by its item's Evals (an
	// optimize request covers a whole knob sweep), so EvalThroughput is
	// comparable across endpoints.
	Completed      uint64  `json:"completed"`
	Throughput     float64 `json:"throughput_rps"`
	CompletedEvals uint64  `json:"completed_evals"`
	EvalThroughput float64 `json:"eval_throughput_per_sec"`
	// Shed counts 429 responses; Dropped counts open-loop arrivals the
	// workers could not absorb (the generator's own admission queue was
	// full — offered load the fleet never saw). ShedRate is
	// (Shed+Dropped)/attempted arrivals.
	Shed     uint64  `json:"shed"`
	Dropped  uint64  `json:"dropped"`
	ShedRate float64 `json:"shed_rate"`
	// Errors4xx excludes 429s (those are Shed).
	Errors4xx uint64 `json:"errors_4xx"`
	Errors5xx uint64 `json:"errors_5xx"`
	NetErrors uint64 `json:"net_errors"`
	// CacheHits/CacheMisses count the daemon's X-Cache header on 200s.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Slow counts completed requests over the SLO latency threshold.
	Slow uint64 `json:"slow,omitempty"`
	// Traced counts requests that originated a trace context.
	Traced uint64 `json:"traced,omitempty"`
	// ShedMissingRetryAfter counts 429s that arrived without a
	// Retry-After header — the daemon's backpressure contract says zero.
	ShedMissingRetryAfter uint64 `json:"shed_missing_retry_after,omitempty"`
	// Latency holds per-endpoint percentiles over completed requests.
	Latency map[string]*LatencySummary `json:"latency"`
	// SLO is the run graded as one window against the configured
	// objectives (nil when grading is disabled).
	SLO *slo.Status `json:"slo,omitempty"`
	// Tenants holds one row per configured tenant in a multi-tenant run
	// (nil otherwise).
	Tenants map[string]*TenantReport `json:"tenants,omitempty"`
}

// TenantReport is one tenant's slice of a multi-tenant step.
type TenantReport struct {
	Weight  float64 `json:"weight"`
	Workers int     `json:"workers"`
	// OfferedRPS is the tenant's share of the offered rate (0 in a
	// closed loop, where Workers is the offered concurrency).
	OfferedRPS            float64                    `json:"offered_rps,omitempty"`
	Completed             uint64                     `json:"completed"`
	Throughput            float64                    `json:"throughput_rps"`
	Shed                  uint64                     `json:"shed"`
	Dropped               uint64                     `json:"dropped"`
	ShedRate              float64                    `json:"shed_rate"`
	Errors4xx             uint64                     `json:"errors_4xx"`
	Errors5xx             uint64                     `json:"errors_5xx"`
	NetErrors             uint64                     `json:"net_errors"`
	CacheHits             uint64                     `json:"cache_hits"`
	CacheMisses           uint64                     `json:"cache_misses"`
	Slow                  uint64                     `json:"slow,omitempty"`
	ShedMissingRetryAfter uint64                     `json:"shed_missing_retry_after"`
	Latency               map[string]*LatencySummary `json:"latency"`
	SLO                   *slo.Status                `json:"slo,omitempty"`
}

// tally counts requests by outcome: each worker keeps a private one (no
// sharing on the hot path), and the report sums them per tenant and for
// the whole step.
type tally struct {
	completed, evals, shed, e4xx, e5xx, netErr uint64
	hits, misses, slow, traced, shedNoRetry    uint64
	hists                                      map[string]*hist
}

func newTally() *tally {
	return &tally{hists: make(map[string]*hist)}
}

// Run executes one load step and reports it.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, workers, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var rr atomic.Uint64
	pick := func(it *Item) string {
		if cfg.Routing == "hash" {
			h := fnv.New32a()
			io.WriteString(h, it.SpecHash)
			return cfg.Targets[h.Sum32()%uint32(len(cfg.Targets))]
		}
		return cfg.Targets[(rr.Add(1)-1)%uint64(len(cfg.Targets))]
	}

	// Open loop: one pacer per tenant emits arrival tokens at the tenant's
	// weighted share of cfg.Rate, feeding that tenant's workers only. A
	// token nobody can take (all its workers busy, buffer full) is a
	// dropped arrival — offered load the fleet would have shed anyway —
	// so a saturated heavy tenant drops its own arrivals without stealing
	// light-tenant tokens.
	openLoop := cfg.Rate > 0
	works := make([]chan struct{}, len(cfg.Tenants))
	drops := make([]atomic.Uint64, len(cfg.Tenants))
	stats := make([]*tally, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	w := 0
	for ti, t := range cfg.Tenants {
		if openLoop {
			works[ti] = make(chan struct{}, workers[ti]*2)
			go pace(ctx, rateShare(cfg, ti), works[ti], &drops[ti])
		}
		for end := w + workers[ti]; w < end; w++ {
			stats[w] = newTally()
			g := &gun{
				client: cfg.Client, st: stats[w], closedLoop: !openLoop,
				epoch: start, track: uint64(w + 1),
				tracer: cfg.Tracer, sample: cfg.TraceSample,
				slowAfter: cfg.SLO.LatencyThreshold, tenant: t.Name,
			}
			wg.Add(1)
			go func(w int, work <-chan struct{}) {
				defer wg.Done()
				// Stride through the corpus so the workers jointly cover it
				// evenly and deterministically.
				for idx := w; ; idx += cfg.Workers {
					if openLoop {
						select {
						case <-ctx.Done():
							return
						case _, ok := <-work:
							if !ok {
								return
							}
						}
					} else if ctx.Err() != nil {
						return
					}
					it := &cfg.Corpus[idx%len(cfg.Corpus)]
					g.shoot(ctx, pick(it), it)
				}
			}(w, works[ti])
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Arrivals still buffered at shutdown were offered but never served.
	dropped := make([]uint64, len(cfg.Tenants))
	if openLoop {
		for ti, work := range works {
			for range work {
				drops[ti].Add(1)
			}
			dropped[ti] = drops[ti].Load()
		}
	}

	rep := buildReport(cfg, stats, workers, dropped, elapsed)
	if cfg.Registry != nil {
		publish(cfg.Registry, rep)
	}
	return rep, nil
}

// plan validates a step and fills its defaults. It returns the config
// with at least one tenant and Workers set to the shares' sum, and the
// workers each tenant gets: a share proportional to its weight (largest
// remainder, minimum one worker each), so the closed-loop concurrency —
// and the open-loop absorption capacity — matches the offered skew. An
// untenanted step is one unnamed tenant that sends no tenant header and
// gets no report row, so it runs the same code as a tenanted one.
func (c Config) plan() (Config, []int, error) {
	c = c.withDefaults()
	if len(c.Targets) == 0 {
		return c, nil, fmt.Errorf("storm: at least one target required")
	}
	if len(c.Corpus) == 0 {
		return c, nil, fmt.Errorf("storm: empty corpus")
	}
	if c.Routing != "rr" && c.Routing != "hash" {
		return c, nil, fmt.Errorf("storm: unknown routing %q (want rr or hash)", c.Routing)
	}
	seen := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		if t.Name == "" {
			return c, nil, fmt.Errorf("storm: tenant with empty name")
		}
		if seen[t.Name] {
			return c, nil, fmt.Errorf("storm: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if t.Weight <= 0 {
			return c, nil, fmt.Errorf("storm: tenant %q needs a positive weight", t.Name)
		}
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []TenantLoad{{Weight: 1}}
	}
	workers := apportionWorkers(c.Workers, c.Tenants)
	// The one-worker minimum can push the sum past Workers (3 workers at
	// 100:1:1 is 2+1+1); every share runs.
	c.Workers = 0
	for _, n := range workers {
		c.Workers += n
	}
	return c, workers, nil
}

// rateShare is tenant ti's weighted share of the offered rate (0 in a
// closed loop).
func rateShare(cfg Config, ti int) float64 {
	if cfg.Rate <= 0 {
		return 0
	}
	var wsum float64
	for _, t := range cfg.Tenants {
		wsum += t.Weight
	}
	return cfg.Rate * cfg.Tenants[ti].Weight / wsum
}

// apportionWorkers splits the worker pool across tenants by weight:
// floor of the exact share, minimum one, remainder to the largest
// deficits (ties to the earlier tenant — the order is caller-chosen).
func apportionWorkers(total int, tenants []TenantLoad) []int {
	var wsum float64
	for _, t := range tenants {
		wsum += t.Weight
	}
	out := make([]int, len(tenants))
	gaps := make([]float64, len(tenants))
	used := 0
	for i, t := range tenants {
		exact := float64(total) * t.Weight / wsum
		share := int(exact)
		if share < 1 {
			share = 1
		}
		out[i] = share
		used += share
		gaps[i] = exact - float64(share)
	}
	for used < total {
		best := 0
		for i := 1; i < len(gaps); i++ {
			if gaps[i] > gaps[best] {
				best = i
			}
		}
		out[best]++
		gaps[best]--
		used++
	}
	return out
}

// pace emits arrival tokens into work at rate/s until ctx expires, then
// closes the channel. Tokens accrue fractionally so rates below the tick
// frequency still average out exactly.
func pace(ctx context.Context, rate float64, work chan<- struct{}, dropped *atomic.Uint64) {
	defer close(work)
	tick := time.Duration(float64(time.Second) / rate)
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var tokens float64
	last := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			tokens += rate * now.Sub(last).Seconds()
			last = now
			for ; tokens >= 1; tokens-- {
				select {
				case work <- struct{}{}:
				default:
					dropped.Add(1)
				}
			}
		}
	}
}

// gun is one worker's firing state: its private tally plus the trace
// sampler. Sampling is deterministic — a token bucket accrues sample
// per request and fires on whole tokens — so a given rate traces the
// same request positions every run.
type gun struct {
	client     *http.Client
	st         *tally
	closedLoop bool
	epoch      time.Time
	track      uint64
	tracer     *obs.Tracer
	sample     float64
	tokens     float64
	slowAfter  time.Duration
	// tenant, when set, rides every request as X-Lognic-Tenant.
	tenant string
}

// shoot issues one request and tallies it. In a closed loop a 429's
// Retry-After is honored (bounded, so a long hint can't stall the run);
// open-loop arrivals are externally timed, so a shed request just counts.
func (g *gun) shoot(ctx context.Context, target string, it *Item) {
	st := g.st
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/"+it.Endpoint, bytes.NewReader(it.Body))
	if err != nil {
		st.netErr++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if g.tenant != "" {
		req.Header.Set("X-Lognic-Tenant", g.tenant)
	}
	var tc obs.TraceContext
	traced := false
	if g.tracer != nil && g.sample > 0 {
		if g.tokens += g.sample; g.tokens >= 1 {
			g.tokens--
			traced = true
			tc = obs.NewTraceContext()
			req.Header.Set("traceparent", tc.Traceparent())
			st.traced++
		}
	}
	t0 := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			st.netErr++
		}
		return
	}
	lat := time.Since(t0).Seconds()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if traced {
		// The client span is the trace root; the daemon's request span
		// points back at it via parent_span_id, and X-Request-Id is that
		// server span's id — recorded here so one args lookup links the
		// two exports.
		g.tracer.Emit(obs.Span{
			Name: it.Endpoint, Cat: "client", Track: g.track,
			Start: t0.Sub(g.epoch).Seconds(), Dur: lat,
			Args: map[string]any{
				"code":       resp.StatusCode,
				"target":     target,
				"request_id": resp.Header.Get("X-Request-Id"),
			},
			TraceID: tc.TraceID, SpanID: tc.SpanID,
		})
	}

	switch {
	case resp.StatusCode == http.StatusOK:
		st.completed++
		if it.Evals > 0 {
			st.evals += uint64(it.Evals)
		} else {
			st.evals++
		}
		if g.slowAfter > 0 && lat > g.slowAfter.Seconds() {
			st.slow++
		}
		h := st.hists[it.Endpoint]
		if h == nil {
			h = &hist{}
			st.hists[it.Endpoint] = h
		}
		h.observe(lat)
		switch resp.Header.Get("X-Cache") {
		case "hit":
			st.hits++
		case "miss":
			st.misses++
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		st.shed++
		if resp.Header.Get("Retry-After") == "" {
			st.shedNoRetry++ // contract violation: every shed carries a hint
		}
		if g.closedLoop {
			backoff := retryAfterOf(resp)
			if backoff > 50*time.Millisecond {
				backoff = 50 * time.Millisecond // bounded: trust the hint's sign, not its scale
			}
			select {
			case <-ctx.Done():
			case <-time.After(backoff):
			}
		}
	case resp.StatusCode >= 500:
		st.e5xx++
	default:
		st.e4xx++
	}
}

// retryAfterOf parses a 429's Retry-After seconds (default 1).
func retryAfterOf(resp *http.Response) time.Duration {
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		return time.Duration(s) * time.Second
	}
	return time.Second
}

// buildReport builds the step's Report, and one TenantReport per named
// tenant, in one pass over the worker tallies. Workers are
// tenant-exclusive and summed in worker order, so a tenant row is the
// step's arithmetic over a subset of workers — including an independent
// SLO grade, which is what a fairness check wants: the light tenant's
// verdict must hold even while the heavy tenant's burns.
func buildReport(cfg Config, stats []*tally, workers []int, dropped []uint64, elapsed time.Duration) *Report {
	all := newTally()
	per := make([]*tally, len(cfg.Tenants))
	var allDropped uint64
	w := 0
	for ti := range cfg.Tenants {
		per[ti] = newTally()
		allDropped += dropped[ti]
		for end := w + workers[ti]; w < end; w++ {
			all.add(stats[w])
			per[ti].add(stats[w])
		}
	}
	rep := all.report(cfg.SLO, elapsed, allDropped)
	rep.OfferedRPS = cfg.Rate
	for ti, t := range cfg.Tenants {
		if t.Name == "" {
			continue // the one tenant of an untenanted step has no row
		}
		if rep.Tenants == nil {
			rep.Tenants = make(map[string]*TenantReport, len(cfg.Tenants))
		}
		r := per[ti].report(cfg.SLO, elapsed, dropped[ti])
		rep.Tenants[t.Name] = &TenantReport{
			Weight: t.Weight, Workers: workers[ti], OfferedRPS: rateShare(cfg, ti),
			Completed: r.Completed, Throughput: r.Throughput,
			Shed: r.Shed, Dropped: r.Dropped, ShedRate: r.ShedRate,
			Errors4xx: r.Errors4xx, Errors5xx: r.Errors5xx, NetErrors: r.NetErrors,
			CacheHits: r.CacheHits, CacheMisses: r.CacheMisses, Slow: r.Slow,
			ShedMissingRetryAfter: r.ShedMissingRetryAfter,
			Latency:               r.Latency, SLO: r.SLO,
		}
	}
	return rep
}

// add folds another tally into this one.
func (t *tally) add(o *tally) {
	t.completed += o.completed
	t.evals += o.evals
	t.shed += o.shed
	t.e4xx += o.e4xx
	t.e5xx += o.e5xx
	t.netErr += o.netErr
	t.hits += o.hits
	t.misses += o.misses
	t.slow += o.slow
	t.traced += o.traced
	t.shedNoRetry += o.shedNoRetry
	for ep, h := range o.hists {
		m := t.hists[ep]
		if m == nil {
			m = &hist{}
			t.hists[ep] = m
		}
		m.merge(h)
	}
}

// report fills every Report field a tally and its dropped arrivals
// determine; the step and each tenant row both come from here.
func (t *tally) report(cfg slo.Config, elapsed time.Duration, dropped uint64) *Report {
	rep := &Report{
		DurationSec: elapsed.Seconds(),
		Completed:   t.completed, CompletedEvals: t.evals,
		Shed: t.shed, Dropped: dropped, ShedRate: t.shedRate(dropped),
		Errors4xx: t.e4xx, Errors5xx: t.e5xx, NetErrors: t.netErr,
		CacheHits: t.hits, CacheMisses: t.misses, Slow: t.slow, Traced: t.traced,
		ShedMissingRetryAfter: t.shedNoRetry,
		Latency:               t.latency(), SLO: t.grade(cfg, elapsed),
	}
	if sec := rep.DurationSec; sec > 0 {
		rep.Throughput = float64(t.completed) / sec
		rep.EvalThroughput = float64(t.evals) / sec
	}
	return rep
}

// latency summarizes each endpoint's histogram in milliseconds.
func (t *tally) latency() map[string]*LatencySummary {
	out := make(map[string]*LatencySummary, len(t.hists))
	for ep, h := range t.hists {
		out[ep] = &LatencySummary{
			Count:  h.count,
			MeanMs: h.mean() * 1e3,
			P50Ms:  h.quantile(0.50) * 1e3,
			P90Ms:  h.quantile(0.90) * 1e3,
			P99Ms:  h.quantile(0.99) * 1e3,
			P999Ms: h.quantile(0.999) * 1e3,
			MaxMs:  h.max * 1e3,
		}
	}
	return out
}

// shedRate is the shed fraction of attempted arrivals: 429s plus dropped
// arrivals over every arrival, answered or not.
func (t *tally) shedRate(dropped uint64) float64 {
	attempted := t.completed + t.shed + t.e4xx + t.e5xx + t.netErr + dropped
	if attempted == 0 {
		return 0
	}
	return float64(t.shed+dropped) / float64(attempted)
}

// grade grades the tally as one SLO window (nil when grading is
// disabled). The denominator is admitted requests (shed 429s and dropped
// arrivals never burn budget); errors are 5xx plus transport failures —
// both client-visible unavailability.
func (t *tally) grade(cfg slo.Config, elapsed time.Duration) *slo.Status {
	if cfg.AvailabilityTarget <= 0 && cfg.LatencyTarget <= 0 {
		return nil
	}
	total := t.completed + t.e4xx + t.e5xx + t.netErr
	win := slo.Evaluate("run", elapsed, total, t.e5xx+t.netErr, t.slow, cfg)
	return &slo.Status{
		AvailabilityTarget:      cfg.AvailabilityTarget,
		LatencyTarget:           cfg.LatencyTarget,
		LatencyThresholdSeconds: cfg.LatencyThreshold.Seconds(),
		Windows:                 []slo.WindowStatus{win},
		Verdict:                 slo.Verdict([]slo.WindowStatus{win}, cfg),
	}
}

// publish folds a report into an obs registry, post-step so the request
// hot path never touches shared metric state.
func publish(reg *obs.Registry, rep *Report) {
	reg.Counter("storm_requests_completed_total", "Requests answered 200.", nil).Add(float64(rep.Completed))
	reg.Counter("storm_requests_shed_total", "Requests answered 429 plus dropped arrivals.", nil).Add(float64(rep.Shed + rep.Dropped))
	reg.Counter("storm_requests_error_total", "Requests answered 4xx/5xx or failed at the transport.", nil).
		Add(float64(rep.Errors4xx + rep.Errors5xx + rep.NetErrors))
	reg.Gauge("storm_throughput_rps", "Completed requests per second, last step.", nil).Set(rep.Throughput)
	reg.Gauge("storm_eval_throughput", "Completed model evaluations per second, last step.", nil).Set(rep.EvalThroughput)
	reg.Gauge("storm_shed_rate", "Shed fraction of attempted arrivals, last step.", nil).Set(rep.ShedRate)
	for ep, l := range rep.Latency {
		labels := obs.Labels{"endpoint": ep}
		reg.Gauge("storm_latency_p50_ms", "p50 latency, last step.", labels).Set(l.P50Ms)
		reg.Gauge("storm_latency_p99_ms", "p99 latency, last step.", labels).Set(l.P99Ms)
	}
	for name, tr := range rep.Tenants {
		labels := obs.Labels{"tenant": name}
		reg.Counter("storm_tenant_completed_total", "Requests answered 200, by tenant.", labels).Add(float64(tr.Completed))
		reg.Counter("storm_tenant_shed_total", "Requests answered 429 plus dropped arrivals, by tenant.", labels).Add(float64(tr.Shed + tr.Dropped))
		reg.Gauge("storm_tenant_shed_rate", "Shed fraction of attempted arrivals, last step, by tenant.", labels).Set(tr.ShedRate)
	}
}

// Sweep runs one step per offered rate, reusing cfg for everything else.
// A rate of 0 is a closed-loop capacity probe.
func Sweep(ctx context.Context, cfg Config, rates []float64) ([]*Report, error) {
	reports := make([]*Report, 0, len(rates))
	for _, r := range rates {
		if ctx.Err() != nil {
			return reports, ctx.Err()
		}
		step := cfg
		step.Rate = r
		rep, err := Run(ctx, step)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// Table renders reports as an aligned human-readable table.
func Table(reports []*Report) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "offered_rps\tthroughput\tevals/s\tcompleted\tshed%\terr\thit%\tp50ms\tp90ms\tp99ms\tp999ms\tendpoint")
	for _, r := range reports {
		offered := "closed"
		if r.OfferedRPS > 0 {
			offered = strconv.FormatFloat(r.OfferedRPS, 'f', 0, 64)
		}
		hitPct := 0.0
		if n := r.CacheHits + r.CacheMisses; n > 0 {
			hitPct = 100 * float64(r.CacheHits) / float64(n)
		}
		// One row per endpoint; endpoints sorted for stable output.
		eps := make([]string, 0, len(r.Latency))
		for ep := range r.Latency {
			eps = append(eps, ep)
		}
		sort.Strings(eps)
		if len(eps) == 0 {
			eps = []string{"-"}
		}
		for _, ep := range eps {
			l := r.Latency[ep]
			if l == nil {
				l = &LatencySummary{}
			}
			fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%d\t%.1f\t%d\t%.0f\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n",
				offered, r.Throughput, r.EvalThroughput, r.Completed, 100*r.ShedRate,
				r.Errors4xx+r.Errors5xx+r.NetErrors, hitPct,
				l.P50Ms, l.P90Ms, l.P99Ms, l.P999Ms, ep)
		}
	}
	tw.Flush()
	return b.String()
}
