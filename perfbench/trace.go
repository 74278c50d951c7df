package main

// The traced run: a single-goroutine, in-process replay of a workload's
// requests that times each call into a layer's public functions. Every
// request gets one request span; under it go one span for the daemon's
// whole handler and, when the handler missed its cache, one span per
// miss-path stage, re-executed in the daemon's order: decode, validate,
// hash, evaluate (core, optimizer or sim), marshal. The re-executed
// stages must reproduce the handler's response byte for byte, which keeps
// them honest about doing the daemon's work.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"lognic/internal/core"
	"lognic/internal/obs"
	"lognic/internal/optimizer"
	"lognic/internal/serve"
	"lognic/internal/sim"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// layers gathers the traced run's per-layer samples. Times are seconds.
type layers struct {
	handler, self                   sample
	decode, validate, hash, marshal sample
	estimate, solve, simNew, simRun sample
	respBytes, evals, events        sample
	simAllocs, simBytes             float64
}

// replayServer builds an in-process server configured like the daemon,
// warmed the way the workload's set-up warms it.
func replayServer(w workload) (*serve.Server, http.Handler, error) {
	srv := serve.NewServer(serve.Config{Workers: 2, CacheEntries: cacheEntries})
	h := srv.Handler()
	if w.hot {
		for i, it := range w.items {
			if code := serveItem(h, it); code != http.StatusOK {
				srv.Close()
				return nil, nil, fmt.Errorf("warming item %d: status %d", i, code)
			}
		}
	}
	return srv, h, nil
}

// serveItem runs one item through the handler, returning its status.
func serveItem(h http.Handler, it item) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+it.endpoint, bytes.NewReader(it.body)))
	return rec.Code
}

// spanner emits the traced run's spans; with a nil tracer it only times.
type spanner struct {
	tr    *obs.Tracer
	start time.Time
}

// emit records one span of request id; stage 0 is the request span itself.
func (s *spanner) emit(id uint64, stage int, name, cat string, t0 time.Time, d time.Duration) {
	if s.tr == nil {
		return
	}
	sp := obs.Span{
		Name: name, Cat: cat, Track: id,
		Start:   t0.Sub(s.start).Seconds(),
		Dur:     d.Seconds(),
		Args:    map[string]any{"request_id": id},
		TraceID: fmt.Sprintf("%032x", id),
		SpanID:  fmt.Sprintf("%016x", id<<8|uint64(stage)),
	}
	if stage > 0 {
		sp.ParentID = fmt.Sprintf("%016x", id<<8)
	}
	s.tr.Emit(sp)
}

// stage times fn as child span number k of request id and appends its
// duration to into.
func (s *spanner) stage(id uint64, k *int, name string, into *sample, fn func() error) (time.Duration, error) {
	*k++
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.emit(id, *k, name, "layer", t0, d)
	*into = append(*into, d.Seconds())
	return d, err
}

// replay sends the workload's first traceRequests requests, one at a
// time, through the handler of an in-process server configured and warmed
// like the daemon, and times each handler call. With tr set it is the
// traced run: every request also gets a request span, and every cache miss
// has its miss path re-executed under one span per stage.
func replay(w workload, tr *obs.Tracer) (*layers, error) {
	srv, h, err := replayServer(w)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	s := &spanner{tr: tr, start: time.Now()}
	L := &layers{}
	for k := 0; k < w.traceRequests; k++ {
		id := uint64(k + 1)
		it := w.items[k%len(w.items)]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/"+it.endpoint, bytes.NewReader(it.body))
		reqStart := time.Now()
		n := 0
		hd, _ := s.stage(id, &n, "serve.handler", &L.handler, func() error {
			h.ServeHTTP(rec, req)
			return nil
		})
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("replay request %d: status %d", k, rec.Code)
		}
		if tr == nil {
			continue
		}
		var stages time.Duration
		if rec.Header().Get("X-Cache") == "miss" {
			out, d, err := L.missPath(s, id, &n, it)
			if err != nil {
				return nil, fmt.Errorf("replay request %d: %w", k, err)
			}
			if !bytes.Equal(out, rec.Body.Bytes()) {
				return nil, fmt.Errorf("replay request %d: stages do not reproduce the handler's response", k)
			}
			stages = d
		}
		L.self = append(L.self, (hd - stages).Seconds())
		s.emit(id, 0, it.endpoint, "request", reqStart, time.Since(reqStart))
	}
	return L, nil
}

// writeTrace writes the spans as one Chrome trace file.
func writeTrace(tr *obs.Tracer, path, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f, process); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// missPath re-executes the daemon's miss path for one item, one span per
// stage, returning the response body it builds and the stages' total time.
func (L *layers) missPath(s *spanner, id uint64, n *int, it item) ([]byte, time.Duration, error) {
	var total time.Duration
	run := func(name string, into *sample, fn func() error) error {
		d, err := s.stage(id, n, name, into, fn)
		total += d
		return err
	}
	var m core.Model
	var result any
	var err error
	switch it.endpoint {
	case "estimate":
		var req serve.EstimateRequest
		err = run("spec.decode", &L.decode, func() error { return decodeStrict(it.body, &req) })
		if err == nil {
			err = run("spec.validate", &L.validate, func() (err error) { m, err = req.Spec.Model(); return err })
		}
		if err == nil {
			err = run("spec.hash", &L.hash, func() error { return cacheKey(it.endpoint, req) })
		}
		if err == nil {
			err = run("core.estimate", &L.estimate, func() (err error) { result, err = estimatePoint(m); return err })
		}
	case "optimize":
		var req serve.OptimizeRequest
		var goal optimizer.Goal
		var knobs []optimizer.IntKnob
		err = run("spec.decode", &L.decode, func() error { return decodeStrict(it.body, &req) })
		if err == nil {
			err = run("spec.validate", &L.validate, func() (err error) {
				if m, err = req.Spec.Model(); err != nil {
					return err
				}
				if goal, err = optimizer.GoalFromName(req.Goal); err != nil {
					return err
				}
				for _, k := range req.Knobs {
					ik := optimizer.IntKnob{Vertex: k.Vertex, Param: k.Param, Lo: k.Lo, Hi: k.Hi}
					if err := ik.Validate(m.Graph); err != nil {
						return err
					}
					knobs = append(knobs, ik)
				}
				return nil
			})
		}
		if err == nil {
			err = run("spec.hash", &L.hash, func() error { return cacheKey(it.endpoint, req) })
		}
		if err == nil {
			err = run("optimizer.solve", &L.solve, func() error {
				sol, err := optimizer.SolveKnobs(m, goal, knobs, req.MaxEvals)
				if err != nil {
					return err
				}
				res := serve.OptimizeResult{
					Goal: goal.String(), Knobs: make(map[string]int, len(knobs)),
					Objective: sol.Objective, Evaluated: sol.Evaluated, Exhaustive: sol.Exhaustive,
				}
				for i, k := range knobs {
					res.Knobs[k.Name()] = sol.Values[i]
				}
				L.evals = append(L.evals, float64(sol.Evaluated))
				result = res
				return nil
			})
		}
	case "simulate":
		var req serve.SimulateRequest
		err = run("spec.decode", &L.decode, func() error { return decodeStrict(it.body, &req) })
		if err == nil {
			err = run("spec.validate", &L.validate, func() (err error) {
				if m, err = req.Spec.Model(); err == nil && req.Duration <= 0 {
					err = fmt.Errorf("simulate needs duration > 0")
				}
				return err
			})
		}
		if err == nil {
			err = run("spec.hash", &L.hash, func() error { return cacheKey(it.endpoint, req) })
		}
		if err == nil {
			result, err = L.simulate(run, m, req)
		}
	default:
		err = fmt.Errorf("unknown endpoint %q", it.endpoint)
	}
	if err != nil {
		return nil, 0, err
	}
	var out []byte
	err = run("serve.marshal", &L.marshal, func() (err error) { out, err = json.Marshal(result); return err })
	out = append(out, '\n')
	L.respBytes = append(L.respBytes, float64(len(out)))
	return out, total, err
}

// simulate builds and runs one simulation the way the daemon's simulate
// endpoint does, with a private metrics registry to count its events.
func (L *layers) simulate(run func(string, *sample, func() error) error, m core.Model, req serve.SimulateRequest) (any, error) {
	maxEvents := req.MaxEvents
	if maxEvents == 0 {
		maxEvents = 50e6 // serve.Config's default MaxSimEvents
	}
	reg := obs.NewRegistry()
	var sm *sim.Simulator
	err := run("sim.new", &L.simNew, func() (err error) {
		sm, err = sim.New(sim.Config{
			Graph:    m.Graph,
			Hardware: m.Hardware,
			Profile: traffic.Fixed(m.Graph.Name(),
				unit.Bandwidth(m.Traffic.IngressBW), unit.Size(m.Traffic.Granularity)),
			Seed:                 req.Seed,
			Duration:             req.Duration,
			Warmup:               req.Warmup,
			DeterministicService: req.Deterministic,
			MaxEvents:            maxEvents,
			Shards:               req.Shards,
			Metrics:              reg,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	var res sim.Result
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = run("sim.run", &L.simRun, func() (err error) { res, err = sm.RunContext(context.Background()); return err })
	runtime.ReadMemStats(&after)
	L.simAllocs += float64(after.Mallocs - before.Mallocs)
	L.simBytes += float64(after.TotalAlloc - before.TotalAlloc)
	L.events = append(L.events, reg.Counter("lognic_sim_events_total", "discrete events processed", nil).Value())
	return res, err
}

// decodeStrict decodes a request body the way the daemon does, rejecting
// unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// cacheKey computes the daemon's cache key: SHA-256 over the endpoint, a
// NUL and the re-marshaled request DTO.
func cacheKey(endpoint string, dto any) error {
	canon, err := json.Marshal(dto)
	if err != nil {
		return err
	}
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(canon)
	_ = hex.EncodeToString(h.Sum(nil)) // the daemon keys its cache by the hex form
	return nil
}

// estimatePoint evaluates a model into the estimate endpoint's wire shape.
func estimatePoint(m core.Model) (serve.PointResult, error) {
	est, err := m.Estimate()
	if err != nil {
		return serve.PointResult{}, err
	}
	out := serve.PointResult{
		IngressBW:  m.Traffic.IngressBW,
		Throughput: est.Throughput.Attainable,
		Bottleneck: est.Throughput.Bottleneck.String(),
		Latency:    est.Latency.Attainable,
		DropRate:   est.Latency.DropRate,
	}
	for _, c := range est.Throughput.Constraints {
		out.Constraints = append(out.Constraints, serve.ConstraintResult{Kind: c.Kind.String(), Name: c.Name, Limit: c.Limit})
	}
	for _, p := range est.Latency.Paths {
		out.PathsLatency = append(out.PathsLatency, serve.PathResult{
			Vertices: p.Vertices, Weight: p.Weight, Total: p.Total,
			Queueing: p.Queueing, Compute: p.Compute, Overhead: p.Overhead, Movement: p.Movement,
		})
	}
	return out, nil
}
