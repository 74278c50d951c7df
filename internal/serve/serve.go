// Package serve implements lognic-serve, the model-evaluation daemon: an
// HTTP/JSON front end over the analytical estimator (POST /v1/estimate),
// the knob optimizer (POST /v1/optimize) and the discrete-event simulator
// (POST /v1/simulate). Requests carry the same JSON spec documents the
// CLIs load from disk.
//
// The daemon is built for repeated evaluation of overlapping
// configurations — a sweep driver or CI gate hammering variations of one
// model — so it puts three mechanisms in front of the evaluators:
//
//   - A canonical-hash result cache. Each decoded request re-marshals to a
//     canonical byte form (units normalized, field order fixed) and its
//     SHA-256 keys an LRU of serialized response bodies; a hit replays the
//     stored bytes verbatim, guaranteeing byte-identical responses for
//     equivalent requests. Simulation results are cacheable because equal
//     seeds give equal runs.
//   - A bounded worker pool with queue-depth backpressure. At most Workers
//     evaluations run concurrently; up to QueueDepth more wait. Beyond
//     that the daemon sheds load with HTTP 429 + Retry-After instead of
//     collapsing under unbounded concurrency.
//   - Per-request timeouts and graceful drain: every evaluation runs under
//     a context with RequestTimeout, and SIGTERM/SIGINT stops accepting
//     new connections while in-flight requests finish (up to
//     DrainTimeout).
//
// For work that outlives a request timeout — long simulations above all —
// the daemon also exposes a crash-safe async job API (jobs.go,
// internal/jobs): POST /v1/jobs submits a spec for background evaluation,
// GET /v1/jobs/{id} polls it, DELETE cancels it. Accepted jobs survive
// kill -9 via an fsynced journal, interrupted simulations resume from
// periodic checkpoints with byte-identical results, failures retry with
// capped backoff, and identical submissions coalesce into one evaluation.
//
// Observability rides on internal/obs: request counts and latency
// histograms per endpoint, cache hit/miss counters and hit-ratio gauges,
// queue-depth gauges and per-request spans, exposed at /metrics (with
// ?format=json) alongside /healthz, /readyz (503 during journal replay
// and shutdown drain) and optional /debug/pprof.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lognic/internal/jobs"
	"lognic/internal/obs"
	"lognic/internal/obs/olog"
	"lognic/internal/obs/slo"
	"lognic/internal/optimizer"
	"lognic/internal/sim"
)

// Config tunes the daemon.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8080"; ":0" picks a
	// free port).
	Addr string
	// Workers caps concurrent evaluations (default GOMAXPROCS).
	Workers int
	// QueueDepth caps requests waiting for a worker slot (default
	// 16×Workers). Requests beyond Workers+QueueDepth in flight are
	// rejected with 429.
	QueueDepth int
	// CacheEntries bounds the result cache's entry count (default 1024;
	// negative disables caching).
	CacheEntries int
	// CacheBytes bounds the result cache's total body bytes (default
	// 256 MiB; negative disables the byte bound). The byte budget is the
	// primary limit — entry counts alone let a few multi-MB simulation
	// responses exhaust memory.
	CacheBytes int64
	// CacheWarmFrom, when set, warm-starts the cache from a snapshot at
	// startup: a file path or an http(s) URL of a peer replica's
	// /v1/cache/snapshot endpoint. Warm-start failures are logged, not
	// fatal — a dead peer must not block a fresh replica.
	CacheWarmFrom string
	// TenantWeights, when non-empty, enables multi-tenant fairness: each
	// entry maps a tenant name to its relative weight, and requests
	// carrying that name in X-Lognic-Tenant are held to weighted shares of
	// Workers, QueueDepth and CacheBytes (see tenant.go). A "default"
	// tenant (weight 1 unless listed) is always added and absorbs requests
	// with no or an unrecognized tenant header. Names must satisfy
	// validTenantName; parseTenantWeights enforces it for flag input and
	// withDefaults drops invalid entries from programmatic configs. Empty
	// runs the daemon as the default tenant alone, with unlabeled metrics.
	TenantWeights map[string]float64
	// TenantCacheSpill is the fraction of CacheBytes set aside as a shared
	// spillover pool for entries larger than their tenant's cache
	// partition (0 disables; clamped to 0.9). Only meaningful with
	// TenantWeights.
	TenantCacheSpill float64
	// RequestTimeout bounds each evaluation (default 30s).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 30s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxSimEvents is the default event budget for /v1/simulate requests
	// that don't set max_events (default 50e6); it converts a pathological
	// spec into HTTP 422 instead of a pinned worker.
	MaxSimEvents uint64
	// Registry receives request metrics and serves /metrics (default: a
	// fresh registry).
	Registry *obs.Registry
	// Tracer, when set, receives one span per request plus the job and
	// simulation spans nested under it; the merged tree is exported at
	// GET /v1/trace in Chrome trace_event form.
	Tracer *obs.Tracer
	// TraceSpans, when > 0 and Tracer is nil, builds a Tracer with that
	// ring capacity (the -trace-spans flag).
	TraceSpans int
	// Logger receives the daemon's structured log records (default:
	// discard). Request- and job-scoped records carry request_id,
	// trace_id, endpoint and job_id attributes.
	Logger *slog.Logger
	// Pprof mounts /debug/pprof when true.
	Pprof bool

	// SLOAvailability is the fraction of admitted requests that must not
	// fail with a 5xx (default 0.999; negative disables the objective).
	SLOAvailability float64
	// SLOLatency is the fraction of successful requests that must finish
	// under SLOLatencyThreshold (default 0.99; negative disables).
	SLOLatency float64
	// SLOLatencyThreshold is the latency objective's cutoff (default 1s).
	SLOLatencyThreshold time.Duration

	// JobsDir is the async-job durability directory (journal +
	// checkpoints). Empty runs the job API memory-only: jobs work but do
	// not survive a restart.
	JobsDir string
	// JobsWorkers caps concurrent async evaluations (default 2).
	JobsWorkers int
	// JobMaxAttempts is the per-job attempt budget (default 3).
	JobMaxAttempts int
	// JobBackoff and JobBackoffMax shape the retry delay: attempt k waits
	// min(JobBackoff·2^(k-1), JobBackoffMax), jittered (defaults 200ms/10s).
	JobBackoff    time.Duration
	JobBackoffMax time.Duration
	// JobCheckpointEvery is the simulation checkpoint cadence in processed
	// events for async jobs (0 selects the default 1e6).
	JobCheckpointEvery uint64
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSimEvents == 0 {
		c.MaxSimEvents = 50e6
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Tracer == nil && c.TraceSpans > 0 {
		c.Tracer = obs.NewTracer(c.TraceSpans)
	}
	if c.Logger == nil {
		c.Logger = olog.Discard()
	}
	if c.SLOAvailability == 0 {
		c.SLOAvailability = 0.999
	} else if c.SLOAvailability < 0 {
		c.SLOAvailability = 0
	}
	if c.SLOLatency == 0 {
		c.SLOLatency = 0.99
	} else if c.SLOLatency < 0 {
		c.SLOLatency = 0
	}
	if c.SLOLatencyThreshold <= 0 {
		c.SLOLatencyThreshold = time.Second
	}
	if c.JobsWorkers <= 0 {
		c.JobsWorkers = 2
	}
	if c.JobCheckpointEvery == 0 {
		c.JobCheckpointEvery = 1_000_000
	}
	if len(c.TenantWeights) > 0 {
		tw := make(map[string]float64, len(c.TenantWeights)+1)
		for name, wt := range c.TenantWeights {
			if wt > 0 && validTenantName(name) == nil {
				tw[name] = wt
			}
		}
		if _, ok := tw[defaultTenant]; !ok {
			tw[defaultTenant] = 1
		}
		c.TenantWeights = tw
		// Every tenant is guaranteed one worker and one queue slot, so the
		// pools must be at least tenant-sized.
		if c.Workers < len(tw) {
			c.Workers = len(tw)
		}
		if c.QueueDepth < len(tw) {
			c.QueueDepth = len(tw)
		}
		if c.TenantCacheSpill < 0 {
			c.TenantCacheSpill = 0
		} else if c.TenantCacheSpill > 0.9 {
			c.TenantCacheSpill = 0.9
		}
	} else {
		c.TenantWeights = nil
		c.TenantCacheSpill = 0
	}
	return c
}

// Server is one daemon instance.
type Server struct {
	cfg Config
	// tenants is the tenant table — never empty: without TenantWeights it
	// holds the default tenant alone, owning every worker, queue slot and
	// cache byte (tenant.go). Each tenant carries its worker semaphore,
	// cache partition and L1 index. spill is the shared
	// spillover pool for entries larger than their tenant's partition
	// (nil unless TenantCacheSpill > 0). partitions lists every cache
	// partition, the tenants' in name order and then the spill pool's —
	// the order of snapshot sections (empty when caching is disabled).
	tenants    map[string]*tenant
	spill      *lruCache
	partitions []*partition
	// queued counts requests waiting for a worker across all tenants;
	// queued > QueueDepth ⇒ shed load, whatever the tenant shares allow.
	queued atomic.Int64
	ln     net.Listener
	start  time.Time
	reqID  atomic.Uint64

	// svcMean is an EWMA of recent evaluation wall times (float64 bits),
	// feeding the Retry-After estimate: a shed request should come back
	// roughly when the queue ahead of it has drained.
	svcMean atomic.Uint64
	// drainStart is the drain's start time in unix nanos (0 before it),
	// so Retry-After during the drain reports the time actually left.
	drainStart atomic.Int64

	// jobs is the async job subsystem; jobsReady flips once its journal
	// replay finished, draining once shutdown began. /readyz and the
	// /v1/jobs endpoints key off both.
	jobs      *jobs.Manager
	jobsReady atomic.Bool
	draining  atomic.Bool

	logger *slog.Logger

	// slo grades the request stream against the configured objectives,
	// summing the tenants' SLO counters, which count admitted requests
	// only — load-shed 429s never consume error budget.
	slo *slo.Monitor
	// sloPolled rate-limits on-demand polls from /v1/slo (unix nanos of
	// the last forced sample).
	sloPolled atomic.Int64

	closeOnce sync.Once

	// latency is the request latency histogram by endpoint. Every other
	// lognic_serve_* series but requests_total is read at scrape time
	// (registerMetrics).
	latency map[string]*obs.Histogram

	// testDelay, when set by tests, runs inside the worker slot before the
	// evaluation — a deterministic way to hold requests in flight for
	// backpressure and drain tests.
	testDelay func(endpoint string)
}

// endpoints, in route order.
var endpoints = []string{"estimate", "optimize", "simulate"}

// NewServer builds a daemon from the config (it does not listen yet).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, start: time.Now()}
	s.logger = cfg.Logger
	reg := cfg.Registry
	obs.RegisterBuildInfo(reg)
	s.latency = make(map[string]*obs.Histogram, len(endpoints))
	for _, ep := range endpoints {
		s.latency[ep] = reg.Histogram("lognic_serve_request_seconds",
			"request latency by endpoint",
			obs.ExpBuckets(1e-5, 4, 14), obs.Labels{"endpoint": ep})
	}
	s.initTenants()
	s.registerMetrics(reg)

	// The SLO monitor samples the request counters on its own cadence;
	// /v1/slo serves its judgement.
	s.slo = slo.NewMonitor(slo.Config{
		AvailabilityTarget: cfg.SLOAvailability,
		LatencyTarget:      cfg.SLOLatency,
		LatencyThreshold:   cfg.SLOLatencyThreshold,
		Source: func() slo.Sample {
			var sum slo.Sample
			for _, t := range s.tenants {
				ts := t.sloSample()
				sum.Total += ts.Total
				sum.Errors += ts.Errors
				sum.Slow += ts.Slow
			}
			return sum
		},
		Registry: reg,
	})
	s.slo.Start()

	// The async job manager. NewManager only errors on a nil evaluator,
	// which we always supply. It shares the request tracer and the
	// request-span clock, so job and simulation spans land on the same
	// timeline as the requests that submitted them.
	s.jobs, _ = jobs.NewManager(jobs.Config{
		Dir:         cfg.JobsDir,
		Workers:     cfg.JobsWorkers,
		MaxAttempts: cfg.JobMaxAttempts,
		BackoffBase: cfg.JobBackoff,
		BackoffMax:  cfg.JobBackoffMax,
		Evaluate:    s.evalJob,
		Registry:    reg,
		Logger:      cfg.Logger,
		Tracer:      cfg.Tracer,
		SpanTime:    func() float64 { return time.Since(s.start).Seconds() },
	})
	// Journal replay happens off the constructor so a large journal never
	// delays binding the listener; /readyz and the job endpoints report
	// 503 until it completes.
	go func() {
		if err := s.jobs.Start(); err != nil {
			s.logger.Error("job manager start failed", olog.KeyComponent, "serve", "error", err.Error())
			return
		}
		s.jobsReady.Store(true)
	}()
	return s
}

// Close releases the server's background resources — the job manager's
// workers, retry timers and journal, and the SLO monitor's poll loop.
// Running job attempts are interrupted and stay queued, exactly as a
// crash would leave them, so a successor over the same JobsDir resumes
// them.
func (s *Server) Close() {
	s.jobs.Close()
	s.closeOnce.Do(func() {
		s.slo.Close()
		for _, t := range s.tenants {
			t.slo.Close()
		}
	})
}

// Handler returns the daemon's routing handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handle("estimate", s.prepareEstimate))
	mux.HandleFunc("POST /v1/optimize", s.handle("optimize", s.prepareOptimize))
	mux.HandleFunc("POST /v1/simulate", s.handle("simulate", s.prepareSimulate))
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/cache/snapshot", s.handleCacheSnapshot)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.Handle("/metrics", s.cfg.Registry)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		version, goVersion, revision := obs.BuildInfo()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(s.start).Seconds(),
			"version":        version,
			"go_version":     goVersion,
			"revision":       revision,
		})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// readBody drains a request body under the size cap.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("serve: reading body: %w", err)
	}
	return body, nil
}

// bodyStatus maps a body-read failure to its status: 413 for an
// over-limit body, 400 for anything else.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusFor maps an evaluation error to an HTTP status.
func statusFor(err error) int {
	var br badRequest
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, optimizer.ErrNoFeasible),
		errors.Is(err, sim.ErrBudgetExceeded),
		errors.Is(err, sim.ErrStalled):
		// The request was well-formed but the model rejected it: no
		// feasible configuration, or a simulation that blew its budget.
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// handle wraps one endpoint's prepare function with the shared request
// path, a fixed sequence of named stages: read → l1 → prepare → cache →
// admit → eval → store. Each stage returns true once it has answered the
// request (an error, a cache hit, a shed), which skips the rest.
func (s *Server) handle(endpoint string, prepare func([]byte) (prepared, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := request{s: s, endpoint: endpoint, prepareFn: prepare, w: w}
		q.begin(r)
		defer q.finish()
		if q.read() || q.l1() || q.prepare() || q.cache() {
			return
		}
		ctx, cancel := context.WithTimeout(q.r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		if q.admit(ctx) || q.eval(ctx) {
			return
		}
		q.store()
	}
}

// request is one request's state on its way through the stages.
type request struct {
	s         *Server
	endpoint  string
	prepareFn func([]byte) (prepared, error)
	w         http.ResponseWriter
	r         *http.Request
	ten       *tenant
	start     time.Time
	tc        obs.TraceContext
	parent    string // the client's span id, "" for a root
	code      int

	body   []byte
	l1key  string
	p      prepared
	result any
}

// begin opens the request: its latency timer, trace context and tenant.
func (q *request) begin(r *http.Request) {
	s := q.s
	q.start = time.Now()
	q.code = http.StatusOK
	// Accept the client's W3C trace context or mint a fresh one; the
	// server span is a child of the client's span, and its span id is
	// echoed as X-Request-Id so client logs and server logs correlate.
	q.tc, q.parent = s.requestTrace(r)
	q.w.Header().Set("X-Request-Id", q.tc.SpanID)
	// Metrics and admission use the resolved tenant bucket (bounded
	// cardinality); the completion record carries the claimed name.
	q.ten = s.tenantFor(claimedTenant(r))
	q.r = r.WithContext(obs.ContextWithTrace(r.Context(), q.tc))
}

// finish records the finished request: latency, request count, SLO
// accounting, the completion log record and the request span.
func (q *request) finish() {
	s := q.s
	d := time.Since(q.start)
	s.latency[q.endpoint].Observe(d.Seconds())
	q.ten.requestsTotal(s.cfg.Registry, q.endpoint, q.code).Inc()
	q.ten.countSLO(q.code, d > s.cfg.SLOLatencyThreshold)
	lvl := slog.LevelDebug
	if q.code >= 500 {
		lvl = slog.LevelWarn
	}
	if s.logger.Enabled(q.r.Context(), lvl) {
		q.logComplete(lvl, d)
	}
	if s.cfg.Tracer != nil {
		args := map[string]any{"code": q.code}
		if q.ten.label != "" {
			args["tenant"] = q.ten.label
		}
		s.cfg.Tracer.Emit(obs.Span{
			Name:     q.endpoint,
			Cat:      "request",
			Track:    s.reqID.Add(1),
			Start:    q.start.Sub(s.start).Seconds(),
			Dur:      d.Seconds(),
			Args:     args,
			TraceID:  q.tc.TraceID,
			SpanID:   q.tc.SpanID,
			ParentID: q.parent,
		})
	}
}

// logComplete writes the completion record with the request's
// correlation attributes: the claimed tenant name verbatim (the resolved
// bucket's label when none was claimed), and empty values omitted.
func (q *request) logComplete(lvl slog.Level, d time.Duration) {
	tenant := claimedTenant(q.r)
	if tenant == "" {
		tenant = q.ten.label
	}
	attrs := make([]slog.Attr, 0, 6)
	for _, a := range [...]slog.Attr{
		slog.String(olog.KeyRequestID, q.tc.SpanID),
		slog.String(olog.KeyTraceID, q.tc.TraceID),
		slog.String(olog.KeyEndpoint, q.endpoint),
		slog.String(olog.KeyTenant, tenant),
	} {
		if a.Value.String() != "" {
			attrs = append(attrs, a)
		}
	}
	attrs = append(attrs, slog.Int("code", q.code), slog.Float64("duration_seconds", d.Seconds()))
	q.s.logger.LogAttrs(q.r.Context(), lvl, "request complete", attrs...)
}

// fail answers the request with an error status.
func (q *request) fail(code int, err error) bool {
	q.code = code
	writeError(q.w, code, err)
	return true
}

// reply answers the request with a response body.
func (q *request) reply(xcache string, body []byte) bool {
	q.w.Header().Set("Content-Type", "application/json")
	q.w.Header().Set("X-Cache", xcache)
	_, _ = q.w.Write(body)
	return true
}

// read drains the body under the size cap.
func (q *request) read() bool {
	body, err := readBody(q.w, q.r, q.s.cfg.MaxBodyBytes)
	if err != nil {
		return q.fail(bodyStatus(err), err)
	}
	q.body = body
	return false
}

// l1 probes the exact-body index: a byte-identical repeat of a cached
// request is served before the body is even parsed. Safe because the L1
// only ever redirects into the canonical cache — a stale index entry just
// misses and falls through to the full path.
func (q *request) l1() bool {
	l1 := q.ten.l1
	if l1 == nil {
		return false // caching disabled
	}
	q.l1key = q.endpoint + "\x00" + string(q.body)
	ck, ok := l1.Get(q.l1key)
	if !ok {
		return false
	}
	if cached, ok := q.s.cacheGet(q.ten, string(ck)); ok {
		q.ten.hits.Add(1)
		q.ten.l1Hits.Add(1)
		return q.reply("hit", cached)
	}
	// The canonical tier evicted this key, so the index entry is dead
	// weight: its key is a whole request body, it pins real memory in the
	// L1 byte budget, and it can only ever re-miss. Prune it now; the full
	// path re-creates it if the response is cached again.
	l1.Delete(q.l1key)
	return false
}

// prepare decodes and validates the body and derives its canonical key.
func (q *request) prepare() bool {
	p, err := q.prepareFn(q.body)
	if err != nil {
		return q.fail(statusFor(err), err)
	}
	q.p = p
	return false
}

// cache probes the canonical tier and back-fills the L1 for this body's
// byte shape on a hit. Hits bypass the worker pool entirely: replaying
// cached bytes is cheap and must stay available under saturation.
func (q *request) cache() bool {
	cached, ok := q.s.cacheGet(q.ten, q.p.key)
	if !ok {
		return false
	}
	q.ten.hits.Add(1)
	q.ten.l1.Put(q.l1key, []byte(q.p.key))
	return q.reply("hit", cached)
}

// admit holds the request to its tenant's share of the wait queue, then
// to the global QueueDepth, and waits for one of the tenant's worker
// slots — a saturating tenant sheds against its own budget and occupies
// only its own slots, while other tenants keep admitting.
func (q *request) admit(ctx context.Context) bool {
	s, t := q.s, q.ten
	tq := t.queued.Add(1)
	full := tq > int64(t.queueShare)
	if !full && s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		full = true
	}
	if full {
		t.queued.Add(-1)
		t.rejected.Add(1)
		q.w.Header().Set("Retry-After", retryAfterValue(s.drainEstimate(t)))
		return q.fail(http.StatusTooManyRequests, fmt.Errorf("serve: %s queue full (%d waiting)", q.endpoint, tq-1))
	}
	select {
	case t.sem <- struct{}{}:
	case <-ctx.Done():
		q.dequeue()
		return q.fail(statusFor(ctx.Err()), fmt.Errorf("serve: timed out waiting for a worker: %w", ctx.Err()))
	}
	q.dequeue()
	return false
}

// dequeue takes an admitted request off the wait queue. The global count
// drops first, so it never exceeds the tenants' sum and a lone tenant's
// share check is the one that sheds.
func (q *request) dequeue() {
	q.s.queued.Add(-1)
	q.ten.queued.Add(-1)
}

// eval runs the evaluation under the request timeout in the worker slot
// admit took, and gives the slot back.
func (q *request) eval(ctx context.Context) bool {
	s, t := q.s, q.ten
	result, err := func() (any, error) {
		defer func() { <-t.sem }()
		if s.testDelay != nil {
			s.testDelay(q.endpoint)
		}
		if err := expired(ctx); err != nil {
			return nil, err
		}
		evalStart := time.Now()
		res, err := q.p.run(ctx, nil)
		s.observeServiceTime(time.Since(evalStart))
		return res, err
	}()
	if err != nil {
		return q.fail(statusFor(err), err)
	}
	q.result = result
	return false
}

// expired is ctx.Err, except that a context whose deadline has passed
// counts as expired even before its timer fires: a request that waited
// out its deadline must not start an evaluation on a timer race.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// store serializes the result, caches it and replies.
func (q *request) store() {
	out, err := encodeResult(q.result)
	if err != nil {
		q.fail(http.StatusInternalServerError, err)
		return
	}
	// Miss accounting only applies when a cache exists to miss: a server
	// started with caching disabled must report no cache traffic (and no
	// 0.0 hit ratio for a cache that isn't there).
	if t := q.ten; t.cache != nil {
		t.misses.Add(1)
		q.s.cachePut(t, q.p.key, out)
		t.l1.Put(q.l1key, []byte(q.p.key))
	}
	q.reply("miss", out)
}

// observeServiceTime folds one evaluation's wall time into the EWMA that
// backs the Retry-After estimate. α=0.2 keeps it "recent": ~5 evaluations
// of history, so a shift in the workload mix reshapes the hint quickly.
func (s *Server) observeServiceTime(d time.Duration) {
	sec := d.Seconds()
	for {
		old := s.svcMean.Load()
		mean := math.Float64frombits(old)
		if mean <= 0 {
			mean = sec
		} else {
			mean = 0.8*mean + 0.2*sec
		}
		if s.svcMean.CompareAndSwap(old, math.Float64bits(mean)) {
			return
		}
	}
}

// retryAfterValue renders a drain estimate as a Retry-After header value:
// whole seconds, rounded up, clamped to [1, 60] — a shed client should
// neither hammer sub-second nor be parked past a minute on a guess.
func retryAfterValue(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// Listen binds the configured address. Call before Serve to learn the
// bound port (Addr) — e.g. with Addr ":0".
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr reports the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve runs the daemon until the context is canceled or SIGTERM/SIGINT
// arrives, then drains: the listener closes, in-flight requests get up to
// DrainTimeout to finish, and Serve returns nil on a clean drain. Listen
// is called implicitly if it hasn't been.
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Slow-client hardening: a peer that trickles its header or parks an
	// idle keep-alive connection must not pin a goroutine forever. Request
	// bodies are separately bounded by MaxBytesReader in the handlers.
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(s.ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness first so /readyz steers load balancers away while
	// in-flight requests finish, then stop catching signals so a second
	// SIGTERM kills a stuck drain.
	s.drainStart.Store(time.Now().UnixNano())
	s.draining.Store(true)
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	// Stop the job workers after the HTTP drain: interrupted attempts stay
	// journaled as queued, so a restart resumes them from their last
	// checkpoint — the same contract as a crash, minus the torn tail.
	s.Close()
	if err != nil {
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	return nil
}

// Main is the lognic-serve entry point (also reachable as `lognic serve`).
func Main(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet(stderr)
	cfg, err := parseFlags(fs, args)
	if err != nil {
		return 2
	}
	srv := NewServer(cfg)
	lg := srv.logger
	if err := srv.Listen(); err != nil {
		return olog.Fail(lg, "listen failed", olog.KeyComponent, "serve", "error", err.Error())
	}
	if cfg.CacheWarmFrom != "" {
		n, nbytes, err := srv.WarmCache(cfg.CacheWarmFrom)
		if err != nil {
			// Warm-start is an optimization: a dead peer or a stale file
			// must not block a fresh replica from serving cold.
			lg.Warn("cache warm-start failed", olog.KeyComponent, "serve",
				"source", cfg.CacheWarmFrom, "error", err.Error())
		} else {
			fmt.Fprintf(stdout, "lognic-serve: cache warmed with %d entries (%d bytes) from %s\n",
				n, nbytes, cfg.CacheWarmFrom)
		}
	}
	jobsDir := srv.cfg.JobsDir
	if jobsDir == "" {
		jobsDir = "memory-only"
	}
	fmt.Fprintf(stdout, "lognic-serve listening on http://%s (workers %d, queue %d, cache %d entries/%d bytes, jobs %s)\n",
		srv.Addr(), srv.cfg.Workers, srv.cfg.QueueDepth, srv.cfg.CacheEntries, srv.cfg.CacheBytes, jobsDir)
	if err := srv.Serve(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return olog.Fail(lg, "serve failed", olog.KeyComponent, "serve", "error", err.Error())
	}
	fmt.Fprintln(stdout, "lognic-serve drained cleanly")
	return 0
}
