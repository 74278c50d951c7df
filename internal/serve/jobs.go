package serve

// The async job API: POST /v1/jobs submits an estimate/optimize/simulate
// request for background evaluation, GET /v1/jobs/{id} polls it, DELETE
// /v1/jobs/{id} cancels it. Jobs exist for work that outlives a request
// timeout — long simulations especially — so attempts run without the
// synchronous RequestTimeout; a simulation is bounded by its event budget
// and periodically checkpointed, and an interrupted attempt (retry,
// restart, kill -9) resumes from the last checkpoint with results
// byte-identical to an uninterrupted run (internal/sim's guarantee).
//
// The job ID is the same canonical hash that keys the result cache, so
// submissions are idempotent: N clients posting equivalent specs get one
// job, one evaluation, and the same /v1/jobs/{id} to poll. Durability,
// retries with backoff, and the degraded memory-only mode live in
// internal/jobs; this file is the HTTP surface plus the evaluator that
// maps job kinds back onto the endpoint preparers.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"lognic/internal/jobs"
	"lognic/internal/strictjson"
)

// jobPreparer maps a job kind to its endpoint's request preparer
// (validation, canonical hash and evaluation), nil for an unknown kind.
func (s *Server) jobPreparer(kind string) func([]byte) (prepared, error) {
	switch kind {
	case "estimate":
		return s.prepareEstimate
	case "optimize":
		return s.prepareOptimize
	case "simulate":
		return s.prepareSimulate
	default:
		return nil
	}
}

// JobSubmitRequest is the body of POST /v1/jobs.
type JobSubmitRequest struct {
	// Kind is "estimate", "optimize" or "simulate".
	Kind string `json:"kind"`
	// Request is the body the matching synchronous endpoint would take.
	Request json.RawMessage `json:"request"`
}

// read decodes the envelope as encoding/json would into the struct, unknown
// fields rejected so typos fail loudly instead of running a different job.
func (r *JobSubmitRequest) read(d *strictjson.Decoder) {
	d.Object("serve.JobSubmitRequest", func(key []byte) bool {
		switch {
		case d.Field(key, "kind"):
			d.String(&r.Kind)
		case d.Field(key, "request"):
			r.Request = append(json.RawMessage(nil), d.Raw()...)
		default:
			return false
		}
		return true
	})
}

// JobView is the wire shape of one job, returned by every /v1/jobs
// endpoint.
type JobView struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	State       string          `json:"state"`
	Attempts    int             `json:"attempts"`
	MaxAttempts int             `json:"max_attempts"`
	Coalesced   int             `json:"coalesced,omitempty"`
	Resumed     bool            `json:"resumed,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Created     time.Time       `json:"created"`
	Started     *time.Time      `json:"started,omitempty"`
	Finished    *time.Time      `json:"finished,omitempty"`
	// RetryAt is the scheduled time of the next attempt while the job
	// waits out a retry backoff.
	RetryAt *time.Time `json:"retry_at,omitempty"`
}

func jobView(j jobs.Job) JobView {
	v := JobView{
		ID: j.ID, Kind: j.Kind, State: string(j.State),
		Attempts: j.Attempts, MaxAttempts: j.MaxAttempts,
		Coalesced: j.Coalesced, Resumed: j.Resumed,
		Error: j.Error, Created: j.Created,
	}
	if len(j.Result) > 0 {
		v.Result = json.RawMessage(j.Result)
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	if !j.RetryAt.IsZero() {
		t := j.RetryAt
		v.RetryAt = &t
	}
	return v
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// jobsUnready rejects job traffic with 503 until the journal replay has
// finished (accepting a submission before the journal is open would make
// it silently non-durable) and once the drain has begun. The Retry-After
// hint is derived from the actual state, not hardcoded: during the drain
// it reports the drain time left (after which either the process is gone
// — retry lands on a peer — or a stuck drain got killed); during replay
// it scales with how long the replay has already run, a standard
// elapsed-time predictor for a task of unknown length.
func (s *Server) jobsUnready(w http.ResponseWriter) bool {
	switch {
	case s.draining.Load():
		remaining := s.cfg.DrainTimeout - time.Since(time.Unix(0, s.drainStart.Load()))
		w.Header().Set("Retry-After", retryAfterValue(remaining))
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: draining"))
		return true
	case !s.jobsReady.Load():
		w.Header().Set("Retry-After", retryAfterValue(time.Since(s.start)/2))
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: job journal replay in progress"))
		return true
	}
	return false
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnready(w) {
		return
	}
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	var env JobSubmitRequest
	if err := decodeRequest(body, &env); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	prep := s.jobPreparer(env.Kind)
	if prep == nil {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: unknown job kind %q (want estimate, optimize or simulate)", env.Kind))
		return
	}
	// Validate now so a malformed spec fails the submission, not the
	// attempt; the preparer also yields the canonical hash = job ID.
	p, err := prep(env.Request)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// The job rides the submitting request's trace (minted here when the
	// client sent none), so post-crash attempts in a future process still
	// rejoin the originating trace — the traceparent is journaled with
	// the submit record.
	tc, _ := s.requestTrace(r)
	w.Header().Set("X-Request-Id", tc.SpanID)
	snap, isNew, err := s.jobs.SubmitTrace(env.Kind, p.key, env.Request, tc.Traceparent())
	if err != nil {
		code := http.StatusInternalServerError
		if err == jobs.ErrClosed {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	code := http.StatusOK // coalesced into an existing job
	if isNew {
		code = http.StatusAccepted
	}
	writeJSON(w, code, jobView(snap))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnready(w) {
		return
	}
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	// A job waiting out its retry backoff won't change state before the
	// scheduled attempt: tell compliant pollers exactly when to come back.
	if j.State == jobs.StateQueued && !j.RetryAt.IsZero() {
		if until := time.Until(j.RetryAt); until > 0 {
			w.Header().Set("Retry-After", retryAfterValue(until))
		}
	}
	writeJSON(w, http.StatusOK, jobView(j))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnready(w) {
		return
	}
	list := s.jobs.Jobs()
	views := make([]JobView, 0, len(list))
	for _, j := range list {
		// Results can be large; the listing is an index, poll the job for
		// its payload.
		j.Result = nil
		views = append(views, jobView(j))
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnready(w) {
		return
	}
	j, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, jobView(j))
}

// handleReadyz is the readiness probe: distinct from /healthz (liveness),
// it reports 503 while the job journal replay is still rebuilding state
// and once the shutdown drain has begun, so load balancers stop routing
// before the listener actually closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.jobsReady.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "replaying-journal"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// evalJob is the jobs.Manager evaluator: it runs a journaled (kind, body)
// through the endpoint's own preparer, evaluation and encoder, so a job
// result is byte for byte the body the synchronous endpoint answers.
// Attempts deliberately run without RequestTimeout (outliving synchronous
// limits is what jobs are for), bounded instead by the simulation event
// budget and shutdown.
func (s *Server) evalJob(ctx context.Context, id, kind string, body []byte, ck jobs.CheckpointStore) ([]byte, error) {
	prepare := s.jobPreparer(kind)
	if prepare == nil {
		return nil, badRequest{fmt.Errorf("serve: unknown job kind %q", kind)}
	}
	p, err := prepare(body)
	if err != nil {
		return nil, err
	}
	result, err := p.run(ctx, &jobAttempt{id: id, ck: ck})
	if err != nil {
		return nil, err
	}
	return encodeResult(result)
}
