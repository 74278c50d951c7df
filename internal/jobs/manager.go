package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lognic/internal/obs"
	"lognic/internal/obs/olog"
)

// EvalFunc executes one evaluation attempt. id, kind and body are the
// values passed to Submit; ck gives the attempt access to the job's
// checkpoint slot (Load a previous simulation snapshot, Save periodic
// ones). The returned bytes are the job's result, stored and replayed
// verbatim.
type EvalFunc func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error)

// CheckpointStore is one job's checkpoint slot. Save is best-effort: on
// a disk error the manager degrades to an in-memory slot (the degraded
// gauge goes up) so retries in this process still resume; only a crash
// then loses the checkpoint, never the job.
type CheckpointStore interface {
	// Load returns the most recent checkpoint, if any.
	Load() ([]byte, bool)
	// Save replaces the job's checkpoint.
	Save([]byte)
}

// ErrClosed reports an operation on a closed manager.
var ErrClosed = errors.New("jobs: manager closed")

// Config tunes a Manager.
type Config struct {
	// Dir is the durability directory (journal + checkpoints). Empty
	// runs memory-only: jobs work, nothing survives a restart.
	Dir string
	// Workers caps concurrent evaluations (default 2).
	Workers int
	// MaxAttempts is the per-job attempt budget (default 3).
	MaxAttempts int
	// BackoffBase is the first retry delay (default 200ms); attempt k
	// waits min(BackoffBase·2^(k-1), BackoffMax), jittered to [d/2, d).
	BackoffBase time.Duration
	// BackoffMax caps the retry delay (default 10s).
	BackoffMax time.Duration
	// Evaluate runs one attempt. Required.
	Evaluate EvalFunc
	// Registry receives job metrics (default: a fresh registry).
	Registry *obs.Registry
	// Logger receives the manager's structured log records (default:
	// discard). Job-scoped records carry the job_id attribute.
	Logger *slog.Logger
	// Tracer, when set, receives attempt/backoff/checkpoint spans so a
	// job's execution shows up in the merged Perfetto export alongside
	// the serve request and sim vertex spans.
	Tracer *obs.Tracer
	// SpanTime supplies span timestamps in seconds; lognic-serve passes
	// its request-span clock so job and request spans share one timeline.
	// Default: seconds since the manager was built.
	SpanTime func() float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Evaluate == nil {
		return c, errors.New("jobs: Config.Evaluate is required")
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 200 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = olog.Discard()
	}
	return c, nil
}

// job is the manager's mutable record, guarded by Manager.mu. The
// journaled fields (kind, body, trace, state, attempts, result, errMsg,
// created, finished and userCancelled) change only in applyLocked; the
// rest are process-local.
type job struct {
	id, kind string
	body     []byte
	// state is the journaled state; it is never running (see status).
	state    State
	attempts int
	coal     int
	result   []byte
	errMsg   string
	resumed  bool
	created  time.Time
	started  time.Time
	finished time.Time
	// retryAt is the scheduled next-attempt time while queued in backoff.
	retryAt time.Time
	// cancel aborts the running attempt; non-nil exactly while an attempt
	// runs.
	cancel context.CancelFunc
	// userCancelled distinguishes DELETE /v1/jobs from a shutdown
	// cancellation: the first is terminal, the second leaves the job
	// queued so a restart resumes it.
	userCancelled bool
	// memCkpt is the in-memory checkpoint fallback (degraded mode, or
	// memory-only managers).
	memCkpt []byte
	// trace is the originating request's traceparent header, journaled so
	// attempts after a crash still join the submitter's trace.
	trace string
	// attemptSpanID is the current attempt's span id while running, the
	// parent for checkpoint spans saved during the attempt.
	attemptSpanID string
	// ckptSaves counts checkpoint saves for this job in this process.
	ckptSaves uint64
}

// Manager runs the job subsystem.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	pending  []string // FIFO of job ids ready for a worker
	timers   map[*time.Timer]struct{}
	journal  *Journal
	degraded bool
	closed   bool
	started  bool
	rng      *rand.Rand

	// subscriptions: job id → live event feeds (events.go).
	subs     map[string][]*Subscription
	eventSeq uint64

	// spanEpoch anchors the default SpanTime clock.
	spanEpoch time.Time

	closeCtx  context.Context
	closeStop context.CancelFunc
	wg        sync.WaitGroup

	// metrics; lognic_jobs_state and lognic_jobs_degraded are read from
	// jobs and degraded at scrape time.
	submitted *obs.Counter
	coalesced *obs.Counter
	retries   *obs.Counter
	evals     *obs.Counter
	resumes   *obs.Counter
	replayed  *obs.Counter
	jErrors   *obs.Counter
	fsyncH    *obs.Histogram
}

// NewManager builds a manager. It performs no I/O; call Start to open
// and replay the journal and launch the workers.
func NewManager(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:       cfg,
		jobs:      map[string]*job{},
		timers:    map[*time.Timer]struct{}{},
		subs:      map[string][]*Subscription{},
		spanEpoch: time.Now(),
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if m.cfg.SpanTime == nil {
		m.cfg.SpanTime = func() float64 { return time.Since(m.spanEpoch).Seconds() }
	}
	m.cond = sync.NewCond(&m.mu)
	m.closeCtx, m.closeStop = context.WithCancel(context.Background())

	reg := cfg.Registry
	for _, st := range states {
		reg.GaugeFunc("lognic_jobs_state", "jobs by lifecycle state",
			obs.Labels{"state": string(st)}, func() float64 { return float64(m.countState(st)) })
	}
	reg.GaugeFunc("lognic_jobs_degraded",
		"1 when a durability failure forced memory-only operation", nil, func() float64 {
			if m.Degraded() {
				return 1
			}
			return 0
		})
	m.submitted = reg.Counter("lognic_jobs_submitted_total", "job submissions accepted", nil)
	m.coalesced = reg.Counter("lognic_jobs_coalesced_total",
		"submissions folded into an existing job by canonical-hash identity", nil)
	m.retries = reg.Counter("lognic_jobs_retries_total", "attempts re-scheduled after a failure", nil)
	m.evals = reg.Counter("lognic_jobs_evaluations_total", "evaluation attempts started", nil)
	m.resumes = reg.Counter("lognic_jobs_resumed_total",
		"attempts that restored a simulation checkpoint", nil)
	m.replayed = reg.Counter("lognic_jobs_replayed_total", "journal records replayed at startup", nil)
	m.jErrors = reg.Counter("lognic_jobs_journal_errors_total", "journal/checkpoint write failures", nil)
	m.fsyncH = reg.Histogram("lognic_jobs_journal_fsync_seconds",
		"journal append+fsync latency", obs.ExpBuckets(1e-5, 4, 12), nil)
	return m, nil
}

// Start opens and replays the journal (when Config.Dir is set),
// re-enqueues every job without a terminal record, and launches the
// worker pool. A journal that cannot be opened degrades the manager to
// memory-only operation instead of failing Start; the returned error is
// then nil and the degraded gauge reports the condition.
func (m *Manager) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.started {
		return errors.New("jobs: manager already started")
	}
	m.started = true

	if m.cfg.Dir != "" {
		if err := os.MkdirAll(m.cfg.Dir, 0o755); err != nil {
			m.degradeLocked(fmt.Errorf("creating jobs dir: %w", err))
		} else {
			jr, records, err := OpenJournal(filepath.Join(m.cfg.Dir, "journal.wal"))
			if err != nil {
				m.degradeLocked(err)
			} else {
				m.journal = jr
				m.replayLocked(records)
			}
		}
	}
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return nil
}

// replayLocked rebuilds job state by applying the journal's records in
// order, then re-enqueues every job they leave queued.
func (m *Manager) replayLocked(records [][]byte) {
	for _, rec := range records {
		var r record
		if err := json.Unmarshal(rec, &r); err != nil || r.ID == "" {
			continue // an old or foreign record shape; framing already vouched for integrity
		}
		m.replayed.Inc()
		m.applyLocked(r)
	}
	for id, j := range m.jobs {
		if j.state == StateQueued {
			m.pending = append(m.pending, id)
		}
	}
	// Deterministic re-enqueue order (map iteration is not).
	sort.Strings(m.pending)
}

// commitLocked stamps a record with the current time, journals it and
// applies it: the only way the live paths change a job's journaled
// fields. It returns the job the record applied to.
func (m *Manager) commitLocked(r record) *job {
	r.Unix = time.Now().UnixNano()
	m.appendLocked(r)
	return m.applyLocked(r)
}

// applyLocked applies one journal record to its job. It is the one
// definition of every journaled transition: live paths reach it through
// commitLocked and replay feeds it the journal, so a restart rebuilds
// exactly the state the records describe. It returns the job, or nil for
// a record about a job no submit created.
func (m *Manager) applyLocked(r record) *job {
	at := time.Unix(0, r.Unix)
	j := m.jobs[r.ID]
	if j == nil {
		if r.Type != "submit" {
			return nil
		}
		j = &job{id: r.ID, created: at}
		m.jobs[r.ID] = j
	}
	switch r.Type {
	case "submit":
		// A submit also reopens a failed or cancelled job: every
		// journaled field starts over.
		j.kind, j.body, j.trace = r.Kind, append([]byte(nil), r.Body...), r.Trace
		j.state, j.attempts, j.errMsg, j.result = StateQueued, 0, "", nil
		j.finished, j.retryAt, j.resumed, j.userCancelled = time.Time{}, time.Time{}, false, false
	case "attempt":
		// A failed attempt with budget left: the job waits queued for a retry.
		j.attempts, j.errMsg = r.Attempts, r.Error
	case "done":
		j.state, j.attempts, j.errMsg, j.result, j.finished = StateSucceeded, r.Attempts, "", r.Result, at
	case "fail":
		j.state, j.attempts, j.errMsg, j.finished = StateFailed, r.Attempts, r.Error, at
	case "cancel":
		j.userCancelled = true
		// A running job only takes the mark: it goes terminal when its
		// attempt unwinds and applies the cancel again.
		if j.cancel == nil {
			j.state, j.finished = StateCancelled, at
		}
	}
	return j
}

// appendLocked journals one record, degrading to memory-only on failure. The
// caller holds mu.
func (m *Manager) appendLocked(r record) {
	if m.journal == nil {
		return
	}
	payload, err := json.Marshal(r)
	if err != nil {
		m.degradeLocked(err)
		return
	}
	start := time.Now()
	err = m.journal.Append(payload)
	m.fsyncH.Observe(time.Since(start).Seconds())
	if err != nil {
		m.degradeLocked(err)
	}
}

// degradeLocked switches to memory-only mode: the journal is closed, the
// gauge goes loud, and traffic keeps flowing without durability.
func (m *Manager) degradeLocked(err error) {
	m.jErrors.Inc()
	if m.degraded {
		return
	}
	m.degraded = true
	if m.journal != nil {
		m.journal.Close()
		m.journal = nil
	}
	m.cfg.Logger.Error("degraded to memory-only mode: durability lost until restart",
		olog.KeyComponent, "jobs", "error", err.Error())
	m.broadcastLocked(Event{Type: EventDegraded, Error: err.Error()})
}

// Degraded reports whether a durability failure forced memory-only mode.
func (m *Manager) Degraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// Evaluations returns the number of evaluation attempts started — the
// observable the coalescing tests assert on.
func (m *Manager) Evaluations() float64 { return m.evals.Value() }

// status is the state and attempt count the job reports: while an
// attempt runs, running with that attempt counted; otherwise the
// journaled ones.
func (j *job) status() (State, int) {
	if j.cancel != nil {
		return StateRunning, j.attempts + 1
	}
	return j.state, j.attempts
}

// snapshot copies a job into its public form.
func (j *job) snapshot(maxAttempts int) Job {
	state, attempts := j.status()
	out := Job{
		ID: j.id, Kind: j.kind, State: state,
		Attempts: attempts, MaxAttempts: maxAttempts, Coalesced: j.coal,
		Error: j.errMsg, Resumed: j.resumed,
		Created: j.created, Started: j.started, Finished: j.finished,
		RetryAt: j.retryAt,
	}
	if j.result != nil {
		out.Result = append([]byte(nil), j.result...)
	}
	return out
}

// Submit admits one job. id must be the canonical request hash: an id
// already known returns the existing job (coalescing — no second
// evaluation runs) unless that job ended failed or cancelled, in which
// case the submission reopens it with a fresh attempt budget. isNew
// reports whether this call enqueued work.
func (m *Manager) Submit(kind, id string, body []byte) (snap Job, isNew bool, err error) {
	return m.SubmitTrace(kind, id, body, "")
}

// SubmitTrace is Submit carrying the originating request's traceparent
// header: attempts run inside the submitter's distributed trace, and the
// header is journaled so even post-crash attempts rejoin it. Coalesced
// submissions keep the first submitter's trace.
func (m *Manager) SubmitTrace(kind, id string, body []byte, traceparent string) (snap Job, isNew bool, err error) {
	if kind == "" || id == "" {
		return Job{}, false, errors.New("jobs: submit needs a kind and an id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, false, ErrClosed
	}
	if j, ok := m.jobs[id]; ok && !(j.state == StateFailed || j.state == StateCancelled) {
		j.coal++
		m.coalesced.Inc()
		return j.snapshot(m.cfg.MaxAttempts), false, nil
	}
	m.submitted.Inc()
	j := m.commitLocked(record{Type: "submit", ID: id, Kind: kind, Body: body, Trace: traceparent})
	m.enqueueLocked(id)
	m.jobLogger(j).Info("job submitted", "kind", kind, "state", StateQueued)
	m.publishLocked(id, Event{Type: EventState, State: StateQueued})
	return j.snapshot(m.cfg.MaxAttempts), true, nil
}

// jobLogger tags the configured logger with one job's identity.
func (m *Manager) jobLogger(j *job) *slog.Logger {
	l := m.cfg.Logger.With(olog.KeyJobID, j.id, olog.KeyComponent, "jobs")
	if tc, err := obs.ParseTraceparent(j.trace); err == nil {
		l = l.With(olog.KeyTraceID, tc.TraceID)
	}
	return l
}

// jobTrack maps a job id to a span track.
func jobTrack(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// Get returns a job snapshot.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.snapshot(m.cfg.MaxAttempts), true
}

// Cancel requests cancellation: a queued job goes terminal immediately, a
// running job's context is cancelled (it goes terminal when the attempt
// unwinds). Cancelling a terminal job is a no-op returning its state.
func (m *Manager) Cancel(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	if j.state.Terminal() {
		return j.snapshot(m.cfg.MaxAttempts), true
	}
	m.commitLocked(record{Type: "cancel", ID: id})
	if j.cancel != nil {
		j.cancel() // the attempt's unwind finishes the job
	} else {
		m.dropCheckpointLocked(j)
		m.jobLogger(j).Info("job cancelled", "state", StateCancelled)
		m.publishLocked(id, Event{Type: EventState, State: StateCancelled, Terminal: true})
	}
	return j.snapshot(m.cfg.MaxAttempts), true
}

// Jobs lists snapshots of every known job, newest first.
func (m *Manager) Jobs() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshot(m.cfg.MaxAttempts))
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.After(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

func (m *Manager) enqueueLocked(id string) {
	m.pending = append(m.pending, id)
	m.cond.Signal()
}

// next blocks until a job id is pending or the manager closes.
func (m *Manager) next() (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.closed {
		return "", false
	}
	id := m.pending[0]
	m.pending = m.pending[1:]
	return id, true
}

// worker is one pool goroutine: dequeue, run one attempt, decide the
// job's fate.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		id, ok := m.next()
		if !ok {
			return
		}
		m.runAttempt(id)
	}
}

func (m *Manager) runAttempt(id string) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || j.state != StateQueued || j.cancel != nil {
		// Cancelled while waiting, or already running.
		m.mu.Unlock()
		return
	}
	attempt := j.attempts + 1
	j.retryAt = time.Time{}
	if j.started.IsZero() {
		j.started = time.Now()
	}
	ctx, cancel := context.WithCancel(m.closeCtx)
	j.cancel = cancel
	kind, body := j.kind, j.body
	log := m.jobLogger(j)
	// Mint the attempt's trace position: a child span of the submitting
	// request, carried on the attempt context so the evaluator (and the
	// simulator under it) parent their spans here. Ids come from
	// crypto/rand — never simulator randomness.
	var attemptTC obs.TraceContext
	var parentSpan string
	if tc, terr := obs.ParseTraceparent(j.trace); terr == nil {
		parentSpan = tc.SpanID
		attemptTC = tc.Child()
		j.attemptSpanID = attemptTC.SpanID
		ctx = obs.ContextWithTrace(ctx, attemptTC)
	}
	m.evals.Inc()
	log.Info("attempt starting", "attempt", attempt, "kind", kind)
	m.publishLocked(id, Event{Type: EventAttempt, State: StateRunning, Attempt: attempt})
	m.mu.Unlock()

	attemptStart := m.cfg.SpanTime()
	result, err := m.cfg.Evaluate(ctx, id, kind, body, &ckptSlot{m: m, id: id})
	cancel()
	attemptEnd := m.cfg.SpanTime()

	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	j.attemptSpanID = ""
	outcome := "ok"
	if err != nil {
		outcome = err.Error()
	}
	m.emitSpanLocked(j, obs.Span{
		Name: fmt.Sprintf("attempt %d", attempt), Cat: "job",
		Track: jobTrack(id), Start: attemptStart, Dur: attemptEnd - attemptStart,
		Args:    map[string]any{"job_id": id, "kind": kind, "attempt": attempt, "outcome": outcome},
		TraceID: attemptTC.TraceID, SpanID: attemptTC.SpanID, ParentID: parentSpan,
	})
	switch {
	case err == nil:
		m.commitLocked(record{Type: "done", ID: id, Result: result, Attempts: attempt})
		m.dropCheckpointLocked(j)
		log.Info("job succeeded", "attempt", attempt, "result_bytes", len(result))
		m.publishLocked(id, Event{Type: EventState, State: StateSucceeded, Attempt: attempt,
			Result: result, Terminal: true})
	case j.userCancelled:
		// Cancel journaled the record; applied again with no attempt
		// running, it finishes the job.
		m.applyLocked(record{Type: "cancel", ID: id, Unix: time.Now().UnixNano()})
		m.dropCheckpointLocked(j)
		log.Info("job cancelled mid-attempt", "attempt", attempt)
		m.publishLocked(id, Event{Type: EventState, State: StateCancelled, Attempt: attempt,
			Terminal: true})
	case m.closed || m.closeCtx.Err() != nil:
		// Shutdown interrupted the attempt: nothing is journaled, so the
		// job stays queued with the attempt uncounted, exactly like a
		// crash, and a restart resumes it.
		m.publishLocked(id, Event{Type: EventState, State: StateQueued, Error: "shutdown"})
	case attempt >= m.cfg.MaxAttempts:
		m.commitLocked(record{Type: "fail", ID: id, Error: err.Error(), Attempts: attempt})
		m.dropCheckpointLocked(j)
		log.Error("job failed: attempt budget exhausted",
			"attempt", attempt, "max_attempts", m.cfg.MaxAttempts, "error", err.Error())
		m.publishLocked(id, Event{Type: EventState, State: StateFailed, Attempt: attempt,
			Error: err.Error(), Terminal: true})
	default:
		// Retry with capped exponential backoff + jitter. The job shows
		// as queued (with the last error) while it waits.
		m.commitLocked(record{Type: "attempt", ID: id, Error: err.Error(), Attempts: attempt})
		m.retries.Inc()
		d := m.backoffLocked(attempt)
		j.retryAt = time.Now().Add(d)
		log.Warn("attempt failed; retry scheduled",
			"attempt", attempt, "error", err.Error(), "retry_in", d.String())
		m.publishLocked(id, Event{Type: EventBackoff, State: StateQueued, Attempt: attempt,
			Error: err.Error(), RetryAt: j.retryAt})
		m.emitSpanLocked(j, obs.Span{
			Name: "backoff", Cat: "job",
			Track: jobTrack(id), Start: attemptEnd, Dur: d.Seconds(),
			Args:    map[string]any{"job_id": id, "attempt": attempt},
			TraceID: attemptTC.TraceID, ParentID: parentSpan,
		})
		var tm *time.Timer
		tm = time.AfterFunc(d, func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			delete(m.timers, tm)
			if m.closed {
				return
			}
			if jj, ok := m.jobs[id]; ok && jj.state == StateQueued && jj.cancel == nil {
				jj.retryAt = time.Time{} // backoff served; now genuinely pending
				m.enqueueLocked(id)
			}
		})
		m.timers[tm] = struct{}{}
	}
}

// emitSpanLocked hands a span to the configured tracer, if any. Spans
// with no trace identity (the job was submitted without a traceparent)
// are still emitted — they render on the job's track, just unlinked.
func (m *Manager) emitSpanLocked(j *job, s obs.Span) {
	if m.cfg.Tracer == nil {
		return
	}
	m.cfg.Tracer.Emit(s)
}

// backoffLocked computes the delay before retry attempt n+1: the capped
// exponential, jittered uniformly into [d/2, d] so synchronized failures
// don't retry in lockstep. The result is always within
// [BackoffBase/2, BackoffMax]: the doubling saturates at BackoffMax
// before it can overflow, attempts below 1 are treated as the first
// retry, and the jittered value is clamped so no draw can exceed the
// configured cap.
func (m *Manager) backoffLocked(attempts int) time.Duration {
	if attempts < 1 {
		attempts = 1
	}
	d := m.cfg.BackoffBase
	for i := 1; i < attempts && d < m.cfg.BackoffMax; i++ {
		if d > m.cfg.BackoffMax/2 {
			d = m.cfg.BackoffMax // doubling would overshoot (or overflow)
			break
		}
		d *= 2
	}
	if d > m.cfg.BackoffMax {
		d = m.cfg.BackoffMax
	}
	half := d / 2
	jittered := half + time.Duration(m.rng.Int63n(int64(half)+1))
	if jittered > m.cfg.BackoffMax {
		jittered = m.cfg.BackoffMax
	}
	return jittered
}

// Close stops the workers, cancels running attempts (their jobs stay
// queued for the next start, mirroring crash semantics), stops retry
// timers and closes the journal.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for tm := range m.timers {
		tm.Stop()
	}
	m.closeStop()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal != nil {
		m.journal.Close()
		m.journal = nil
	}
}

// countState counts the jobs whose current status is st.
func (m *Manager) countState(st State) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if s, _ := j.status(); s == st {
			n++
		}
	}
	return n
}
