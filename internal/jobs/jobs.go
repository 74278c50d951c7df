// Package jobs is the crash-safe asynchronous job subsystem behind
// lognic-serve's /v1/jobs API. A job is one model evaluation — an
// estimate, an optimization or a simulation — identified by the canonical
// hash of its request, executed by a bounded worker pool, and made
// durable by an append-only CRC-framed journal (journal.go): once Submit
// returns, a kill -9 loses nothing. On restart the manager replays the
// journal, re-enqueues every job without a terminal record, and resumes
// interrupted simulations from their latest on-disk checkpoint
// (sim.Checkpoint/sim.Resume), producing results byte-identical to an
// uninterrupted run.
//
// Three more behaviors round out the robustness story:
//
//   - Idempotent, coalescing admission: the job ID is the canonical
//     request hash, so N concurrent submissions of equivalent specs —
//     a thundering herd — create one job and one evaluation whose result
//     every submitter polls.
//   - Retries with capped exponential backoff + jitter under a per-job
//     attempt budget. Attempt failures are journaled so the budget
//     survives crashes; a process crash itself does not consume an
//     attempt.
//   - Graceful degradation: journal or checkpoint write failures (disk
//     full, permission lost) switch the manager to a documented
//     memory-only mode — jobs keep flowing, durability is lost, and the
//     lognic_jobs_degraded gauge goes loud — instead of refusing traffic.
package jobs

import "time"

// State is a job's lifecycle state.
type State string

// Job lifecycle states. queued covers both first admission and the
// backoff wait between retry attempts.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// states lists every lifecycle state, for gauge registration and tests.
var states = []State{StateQueued, StateRunning, StateSucceeded, StateFailed, StateCancelled}

// Job is a point-in-time snapshot of one job, safe to retain.
//
// A restart rebuilds ID, Kind, State, Attempts, Error, Result, Created
// and Finished from the journal, as the records left them: a job that was
// running comes back queued, with the interrupted attempt uncounted.
// Started, RetryAt, Coalesced and Resumed are process-local and start
// over at zero. A job cancelled mid-attempt is the one whose Finished
// differs: live it is the time the attempt unwound, after a restart the
// time of the cancel.
type Job struct {
	// ID is the canonical request hash — the idempotency key.
	ID string
	// Kind is the evaluation kind ("estimate", "optimize", "simulate").
	Kind string
	// State is the lifecycle state at snapshot time.
	State State
	// Attempts counts evaluation attempts started so far.
	Attempts int
	// MaxAttempts is the attempt budget.
	MaxAttempts int
	// Coalesced counts submissions folded into this job beyond the first.
	Coalesced int
	// Result holds the serialized evaluation result once succeeded.
	Result []byte
	// Error is the terminal failure message (failed) or last attempt
	// error (queued between retries).
	Error string
	// Resumed reports that some attempt restored a simulation checkpoint
	// instead of starting from scratch.
	Resumed bool
	// Created, Started and Finished are wall-clock timestamps; Started
	// and Finished are zero until the first attempt begins / the job
	// reaches a terminal state.
	Created, Started, Finished time.Time
	// RetryAt is the scheduled time of the next attempt while the job is
	// queued waiting out a retry backoff; zero otherwise. It lets the
	// HTTP surface answer polls with an honest Retry-After instead of a
	// fixed guess.
	RetryAt time.Time
}

// Terminal reports whether the state accepts no further transitions
// (except an explicit resubmission of failed/cancelled jobs).
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// record is one journal entry. Records are JSON inside CRC frames;
// unknown fields are ignored on replay so the format can grow.
type record struct {
	// Type is "submit", "attempt", "done", "fail" or "cancel".
	Type string `json:"type"`
	ID   string `json:"id"`
	Kind string `json:"kind,omitempty"`
	// Body is the canonical request (submit records), base64 in the JSON.
	Body []byte `json:"body,omitempty"`
	// Result is the serialized evaluation result (done records).
	Result []byte `json:"result,omitempty"`
	// Error carries the attempt or terminal failure message.
	Error string `json:"error,omitempty"`
	// Attempts is the attempt count after the recorded event.
	Attempts int `json:"attempts,omitempty"`
	// Trace is the submitting request's traceparent header (submit
	// records), so post-crash attempts rejoin the originating trace.
	Trace string `json:"trace,omitempty"`
	// Unix is the event's wall-clock time in nanoseconds, informational.
	Unix int64 `json:"unix,omitempty"`
}
