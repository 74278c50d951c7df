package serve

// Wire types and evaluators for the three model endpoints. The request
// DTOs embed spec.File — the same JSON spec format the CLIs load from
// disk — so a file that works with `lognic f.json` works as
// `{"spec": <contents of f.json>}` against the daemon. The DTOs are also
// the cache identity: each one reads itself from the body in one
// strictjson pass (as encoding/json would, unknown fields rejected) and
// writes its canonical form — the bytes json.Marshal would write, units
// normalized to numbers — whose SHA-256 keys the result cache.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"lognic/internal/core"
	"lognic/internal/jobs"
	"lognic/internal/obs"
	"lognic/internal/optimizer"
	"lognic/internal/sim"
	"lognic/internal/spec"
	"lognic/internal/strictjson"
)

// EstimateRequest is the body of POST /v1/estimate.
type EstimateRequest struct {
	// Spec is the model document (spec package format).
	Spec spec.File `json:"spec"`
}

// PointResult is the analytical estimate's wire shape: the /v1/estimate
// body, and the `lognic -json` output (which uses this type too).
type PointResult struct {
	IngressBW    float64            `json:"ingress_bw"`
	Throughput   float64            `json:"throughput"`
	Bottleneck   string             `json:"bottleneck"`
	Latency      float64            `json:"latency"`
	DropRate     float64            `json:"drop_rate"`
	Constraints  []ConstraintResult `json:"constraints"`
	PathsLatency []PathResult       `json:"paths,omitempty"`
}

// ConstraintResult is one Equation 4 term.
type ConstraintResult struct {
	Kind  string  `json:"kind"`
	Name  string  `json:"name,omitempty"`
	Limit float64 `json:"limit"`
}

// PathResult is one path's latency breakdown.
type PathResult struct {
	Vertices []string `json:"vertices"`
	Weight   float64  `json:"weight"`
	Total    float64  `json:"total"`
	Queueing float64  `json:"queueing"`
	Compute  float64  `json:"compute"`
	Overhead float64  `json:"overhead"`
	Movement float64  `json:"movement"`
}

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	Spec spec.File `json:"spec"`
	// Goal is "latency", "throughput" or "goodput" (long forms accepted).
	Goal string `json:"goal"`
	// Knobs lists the integer parameters to search.
	Knobs []KnobSpec `json:"knobs"`
	// MaxEvals bounds model evaluations (0 selects the default).
	MaxEvals int `json:"max_evals,omitempty"`
}

// KnobSpec is one searched parameter.
type KnobSpec struct {
	Vertex string `json:"vertex"`
	// Param is "parallelism" or "queue".
	Param string `json:"param"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
}

// OptimizeResult is the optimizer's wire shape: the /v1/optimize body,
// and the `lognic -optimize -json` output.
type OptimizeResult struct {
	Goal       string         `json:"goal"`
	Knobs      map[string]int `json:"knobs"`
	Objective  float64        `json:"objective"`
	Evaluated  int            `json:"evaluated"`
	Exhaustive bool           `json:"exhaustive"`
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	Spec spec.File `json:"spec"`
	// Duration is the simulated time in seconds. Required.
	Duration float64 `json:"duration"`
	// Warmup excludes initial simulated time from statistics (default 10%
	// of Duration).
	Warmup float64 `json:"warmup,omitempty"`
	// Seed drives all randomness; equal seeds give equal runs — which is
	// what makes simulation results cacheable.
	Seed int64 `json:"seed,omitempty"`
	// Deterministic uses mean service times instead of exponential draws.
	Deterministic bool `json:"deterministic,omitempty"`
	// MaxEvents bounds the event budget (0 uses the server default).
	MaxEvents uint64 `json:"max_events,omitempty"`
	// Deprecated: Shards has no effect; the simulator has one serial
	// engine. It is still accepted so existing clients keep working, and
	// a negative value is still rejected (400).
	Shards int `json:"shards,omitempty"`
}

// badRequest marks an error as the client's fault (HTTP 400): malformed
// JSON, an invalid spec, an unknown goal or knob.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

// modelRequest is a model endpoint's request DTO.
type modelRequest interface {
	// read decodes the request from d.
	read(d *strictjson.Decoder)
	// write writes its canonical form: the bytes json.Marshal writes.
	write(w *strictjson.Writer)
}

// decodeRequest decodes a request body into req: a model endpoint's
// request or a job submission envelope.
func decodeRequest(body []byte, req interface{ read(d *strictjson.Decoder) }) error {
	if err := strictjson.Decode(body, req.read); err != nil {
		return badRequest{fmt.Errorf("serve: bad request body: %w", err)}
	}
	return nil
}

// cacheKey hashes an endpoint name, a NUL and the canonical form of a
// decoded request. Hashing the decoded request (not the raw body)
// normalizes whitespace, key order and unit spellings, so equivalent
// requests share one cache entry.
func cacheKey(endpoint string, req modelRequest) (string, error) {
	w := strictjson.Writer{B: make([]byte, 0, 2048)}
	w.B = append(append(w.B, endpoint...), 0)
	req.write(&w)
	if w.Err != nil {
		return "", w.Err
	}
	sum := sha256.Sum256(w.B)
	return hex.EncodeToString(sum[:]), nil
}

func (r *EstimateRequest) read(d *strictjson.Decoder) {
	d.Object("serve.EstimateRequest", func(key []byte) bool {
		if !d.Field(key, "spec") {
			return false
		}
		r.Spec.ReadJSON(d)
		return true
	})
}

func (r *EstimateRequest) write(w *strictjson.Writer) {
	w.Open()
	w.Key("spec")
	r.Spec.WriteJSON(w)
	w.Close()
}

func (r *OptimizeRequest) read(d *strictjson.Decoder) {
	d.Object("serve.OptimizeRequest", func(key []byte) bool {
		switch {
		case d.Field(key, "spec"):
			r.Spec.ReadJSON(d)
		case d.Field(key, "goal"):
			d.String(&r.Goal)
		case d.Field(key, "knobs"):
			strictjson.Slice(d, &r.Knobs, "[]serve.KnobSpec", (*KnobSpec).read)
		case d.Field(key, "max_evals"):
			d.Int(&r.MaxEvals)
		default:
			return false
		}
		return true
	})
}

func (r *OptimizeRequest) write(w *strictjson.Writer) {
	w.Open()
	w.Key("spec")
	r.Spec.WriteJSON(w)
	w.Key("goal")
	w.String(r.Goal)
	w.Key("knobs")
	strictjson.List(w, r.Knobs, (*KnobSpec).write)
	if r.MaxEvals != 0 {
		w.Key("max_evals")
		w.Int(int64(r.MaxEvals))
	}
	w.Close()
}

func (k *KnobSpec) read(d *strictjson.Decoder) {
	d.Object("serve.KnobSpec", func(key []byte) bool {
		switch {
		case d.Field(key, "vertex"):
			d.String(&k.Vertex)
		case d.Field(key, "param"):
			d.String(&k.Param)
		case d.Field(key, "lo"):
			d.Int(&k.Lo)
		case d.Field(key, "hi"):
			d.Int(&k.Hi)
		default:
			return false
		}
		return true
	})
}

func (k *KnobSpec) write(w *strictjson.Writer) {
	w.Open()
	w.Key("vertex")
	w.String(k.Vertex)
	w.Key("param")
	w.String(k.Param)
	w.Key("lo")
	w.Int(int64(k.Lo))
	w.Key("hi")
	w.Int(int64(k.Hi))
	w.Close()
}

func (r *SimulateRequest) read(d *strictjson.Decoder) {
	d.Object("serve.SimulateRequest", func(key []byte) bool {
		switch {
		case d.Field(key, "spec"):
			r.Spec.ReadJSON(d)
		case d.Field(key, "duration"):
			d.Float(&r.Duration)
		case d.Field(key, "warmup"):
			d.Float(&r.Warmup)
		case d.Field(key, "seed"):
			d.Int64(&r.Seed)
		case d.Field(key, "deterministic"):
			d.Bool(&r.Deterministic)
		case d.Field(key, "max_events"):
			d.Uint64(&r.MaxEvents)
		case d.Field(key, "shards"):
			d.Int(&r.Shards)
		default:
			return false
		}
		return true
	})
}

func (r *SimulateRequest) write(w *strictjson.Writer) {
	w.Open()
	w.Key("spec")
	r.Spec.WriteJSON(w)
	w.Key("duration")
	w.Float(r.Duration)
	if r.Warmup != 0 {
		w.Key("warmup")
		w.Float(r.Warmup)
	}
	if r.Seed != 0 {
		w.Key("seed")
		w.Int(r.Seed)
	}
	if r.Deterministic {
		w.Key("deterministic")
		w.Bool(true)
	}
	if r.MaxEvents != 0 {
		w.Key("max_events")
		w.Uint(r.MaxEvents)
	}
	if r.Shards != 0 {
		w.Key("shards")
		w.Int(int64(r.Shards))
	}
	w.Close()
}

// EstimatePoint evaluates a model once into the wire shape.
func EstimatePoint(m core.Model) (PointResult, error) {
	est, err := m.Estimate()
	if err != nil {
		return PointResult{}, err
	}
	out := PointResult{
		IngressBW:  m.Traffic.IngressBW,
		Throughput: est.Throughput.Attainable,
		Bottleneck: est.Throughput.Bottleneck.String(),
		Latency:    est.Latency.Attainable,
		DropRate:   est.Latency.DropRate,
	}
	for _, c := range est.Throughput.Constraints {
		out.Constraints = append(out.Constraints, ConstraintResult{
			Kind: c.Kind.String(), Name: c.Name, Limit: c.Limit,
		})
	}
	for _, p := range est.Latency.Paths {
		out.PathsLatency = append(out.PathsLatency, PathResult{
			Vertices: p.Vertices, Weight: p.Weight, Total: p.Total,
			Queueing: p.Queueing, Compute: p.Compute,
			Overhead: p.Overhead, Movement: p.Movement,
		})
	}
	return out, nil
}

// prepared is one admitted request: its cache key and the work to run if
// the cache misses. run takes the job attempt it runs under, nil for a
// synchronous request.
type prepared struct {
	key string
	run func(ctx context.Context, at *jobAttempt) (any, error)
}

// jobAttempt is one async job attempt: the job's id and checkpoint slot.
type jobAttempt struct {
	id string
	ck jobs.CheckpointStore
}

// encodeResult serializes an evaluation result: the synchronous response
// body and the async job result alike.
func encodeResult(result any) ([]byte, error) {
	out, err := json.Marshal(result)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// prepareEstimate decodes and validates an estimate request.
func (s *Server) prepareEstimate(body []byte) (prepared, error) {
	var req EstimateRequest
	if err := decodeRequest(body, &req); err != nil {
		return prepared{}, err
	}
	m, err := req.Spec.Model()
	if err != nil {
		return prepared{}, badRequest{err}
	}
	key, err := cacheKey("estimate", &req)
	if err != nil {
		return prepared{}, err
	}
	return prepared{key: key, run: func(context.Context, *jobAttempt) (any, error) {
		return EstimatePoint(m)
	}}, nil
}

// prepareOptimize decodes and validates an optimize request.
func (s *Server) prepareOptimize(body []byte) (prepared, error) {
	var req OptimizeRequest
	if err := decodeRequest(body, &req); err != nil {
		return prepared{}, err
	}
	m, err := req.Spec.Model()
	if err != nil {
		return prepared{}, badRequest{err}
	}
	goal, err := optimizer.GoalFromName(req.Goal)
	if err != nil {
		return prepared{}, badRequest{err}
	}
	if len(req.Knobs) == 0 {
		return prepared{}, badRequest{fmt.Errorf("serve: optimize needs at least one knob")}
	}
	knobs := make([]optimizer.IntKnob, 0, len(req.Knobs))
	for _, k := range req.Knobs {
		ik := optimizer.IntKnob{Vertex: k.Vertex, Param: k.Param, Lo: k.Lo, Hi: k.Hi}
		if err := ik.Validate(m.Graph); err != nil {
			return prepared{}, badRequest{err}
		}
		knobs = append(knobs, ik)
	}
	key, err := cacheKey("optimize", &req)
	if err != nil {
		return prepared{}, err
	}
	return prepared{key: key, run: func(context.Context, *jobAttempt) (any, error) {
		return Optimize(m, goal, knobs, req.MaxEvals)
	}}, nil
}

// Optimize searches the knob space for the best configuration under goal
// (at most maxEvals model evaluations; 0 selects the default) into the
// wire shape.
func Optimize(m core.Model, goal optimizer.Goal, knobs []optimizer.IntKnob, maxEvals int) (OptimizeResult, error) {
	sol, err := optimizer.SolveKnobs(m, goal, knobs, maxEvals)
	if err != nil {
		return OptimizeResult{}, err
	}
	out := OptimizeResult{
		Goal:       goal.String(),
		Knobs:      make(map[string]int, len(knobs)),
		Objective:  sol.Objective,
		Evaluated:  sol.Evaluated,
		Exhaustive: sol.Exhaustive,
	}
	for i, k := range knobs {
		out.Knobs[k.Name()] = sol.Values[i]
	}
	return out, nil
}

// prepareSimulate decodes and validates a simulate request. Under a job
// attempt the run also saves periodic checkpoints to the job's slot,
// resumes from a saved one instead of starting over, and reports progress
// to the job's subscribers; a synchronous run does none of these.
func (s *Server) prepareSimulate(body []byte) (prepared, error) {
	var req SimulateRequest
	if err := decodeRequest(body, &req); err != nil {
		return prepared{}, err
	}
	m, err := req.Spec.Model()
	if err != nil {
		return prepared{}, badRequest{err}
	}
	if req.Duration <= 0 {
		return prepared{}, badRequest{fmt.Errorf("serve: simulate needs duration > 0 seconds")}
	}
	key, err := cacheKey("simulate", &req)
	if err != nil {
		return prepared{}, err
	}
	cfg := sim.ForModel(m)
	cfg.Seed = req.Seed
	cfg.Duration = req.Duration
	cfg.Warmup = req.Warmup
	cfg.DeterministicService = req.Deterministic
	cfg.MaxEvents = req.MaxEvents
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = s.cfg.MaxSimEvents
	}
	cfg.Shards = req.Shards
	return prepared{key: key, run: func(ctx context.Context, at *jobAttempt) (any, error) {
		// The simulation joins the trace on ctx, the request's or the job
		// attempt's. (Cache hits skip the evaluation entirely, so a traced
		// synchronous run is only guaranteed on a cold key.)
		cfg := s.traceSim(ctx, cfg)
		var sm *sim.Simulator
		if at != nil {
			// Progress frames are throttled to wall clock: the sim polls
			// far faster than any human or dashboard.
			var lastProgress time.Time
			cfg.Progress = func(p sim.Progress) {
				// The poll before the first event has no progress to report.
				if now := time.Now(); p.Events > 0 && now.Sub(lastProgress) >= 50*time.Millisecond {
					lastProgress = now
					s.jobs.Progress(at.id, p.Events, p.SimTime, p.Checkpoints)
				}
			}
			cfg.CheckpointEvery = s.cfg.JobCheckpointEvery
			cfg.CheckpointSink = func(c *sim.Checkpoint) error {
				// Best-effort: a snapshot that cannot be encoded is not saved.
				if b, err := c.Encode(); err == nil {
					at.ck.Save(b)
				}
				return nil
			}
			// A stale or undecodable snapshot (server upgraded, knob
			// changed) falls through to a fresh run: correct, just slower.
			if b, ok := at.ck.Load(); ok {
				if ckpt, err := sim.DecodeCheckpoint(b); err == nil {
					if resumed, err := sim.Resume(cfg, ckpt); err == nil {
						sm = resumed
						s.jobs.MarkResumed(at.id)
					}
				}
			}
		}
		if sm == nil {
			var err error
			if sm, err = sim.New(cfg); err != nil {
				return nil, badRequest{err}
			}
		}
		return sm.RunContext(ctx)
	}}, nil
}

// traceSim joins a simulation to the trace on ctx: its vertex spans
// parent under the span that launched it (a request or a job attempt).
func (s *Server) traceSim(ctx context.Context, cfg sim.Config) sim.Config {
	if tc, ok := obs.TraceFromContext(ctx); ok {
		cfg.TraceID = tc.TraceID
		cfg.ParentSpanID = tc.SpanID
		cfg.Spans = s.cfg.Tracer
	}
	return cfg
}
