package cli

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lognic/internal/serve"
	"lognic/internal/spec"
)

// paritySpec is a fork-join model with knobs on both branches.
const paritySpec = `{
  "name": "parity",
  "hardware": {"interface_bw": "50Gbps", "memory_bw": 160e9},
  "graph": {
    "vertices": [
      {"name": "rx", "kind": "ingress"},
      {"name": "cores", "throughput": "10Gbps", "parallelism": 4, "queue_capacity": 64, "overhead": 3e-7},
      {"name": "accel", "throughput": "40Gbps", "parallelism": 2, "queue_capacity": 32, "queue_model": "mmck"},
      {"name": "tx", "kind": "egress"}
    ],
    "edges": [
      {"from": "rx", "to": "cores", "delta": 0.7, "alpha": 1},
      {"from": "rx", "to": "accel", "delta": 0.3, "alpha": 1},
      {"from": "cores", "to": "tx", "delta": 0.7},
      {"from": "accel", "to": "tx", "delta": 0.3, "beta": 1}
    ]
  },
  "traffic": {"ingress_bw": "6Gbps", "granularity": "1KB"}
}`

// daemonBody POSTs a request to an in-process daemon and returns the
// 200 response body.
func daemonBody(t *testing.T, h http.Handler, path string, req any) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// `lognic -json` and the daemon share one result type, so a point
// estimate, every sweep point and an exhaustive optimize search print
// exactly the bytes /v1/estimate and /v1/optimize answer for the same
// spec; `lognic-sim -json` likewise prints the /v1/simulate body.
func TestJSONMatchesDaemon(t *testing.T) {
	f, err := spec.Parse([]byte(paritySpec))
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Model()
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewServer(serve.Config{})
	t.Cleanup(s.Close)
	h := s.Handler()

	var point bytes.Buffer
	if err := RunPoint(&point, m, true); err != nil {
		t.Fatal(err)
	}
	if want := daemonBody(t, h, "/v1/estimate", serve.EstimateRequest{Spec: f}); !bytes.Equal(point.Bytes(), want) {
		t.Fatalf("RunPoint JSON differs from /v1/estimate:\ncli    %s\ndaemon %s", point.Bytes(), want)
	}

	const sweep = "2Gbps:12Gbps:4"
	var out bytes.Buffer
	if err := RunSweep(&out, m, sweep, true); err != nil {
		t.Fatal(err)
	}
	var rows []json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	lo, hi, steps, err := ParseSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != steps {
		t.Fatalf("sweep printed %d points, want %d", len(rows), steps)
	}
	for i, row := range rows {
		ff := f
		ff.Traffic.IngressBW = spec.Bandwidth(lo + (hi-lo)*float64(i)/float64(steps-1))
		var pt serve.PointResult
		if err := json.Unmarshal(daemonBody(t, h, "/v1/estimate", serve.EstimateRequest{Spec: ff}), &pt); err != nil {
			t.Fatal(err)
		}
		pt.PathsLatency = nil // sweeps print compact points
		want, err := json.Marshal(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(row, want) {
			t.Fatalf("sweep point %d differs from /v1/estimate:\ncli    %s\ndaemon %s", i, row, want)
		}
	}

	for _, goal := range []string{"latency", "throughput", "goodput"} {
		var opt bytes.Buffer
		if err := RunOptimize(&opt, m, goal, []string{"cores.parallelism=1..6", "accel.queue=4..12"}, true); err != nil {
			t.Fatal(err)
		}
		want := daemonBody(t, h, "/v1/optimize", serve.OptimizeRequest{Spec: f, Goal: goal, Knobs: []serve.KnobSpec{
			{Vertex: "cores", Param: "parallelism", Lo: 1, Hi: 6},
			{Vertex: "accel", Param: "queue", Lo: 4, Hi: 12},
		}})
		if !bytes.Equal(opt.Bytes(), want) {
			t.Fatalf("%s: RunOptimize JSON differs from /v1/optimize:\ncli    %s\ndaemon %s", goal, opt.Bytes(), want)
		}
		if !strings.Contains(opt.String(), `"exhaustive":true`) {
			t.Fatalf("%s: search was not exhaustive: %s", goal, opt.Bytes())
		}
	}

	// `lognic-sim -json` prints the /v1/simulate body for the same spec,
	// duration and seed.
	var simOut bytes.Buffer
	if err := RunSim(&simOut, m, SimOptions{Duration: 0.002, Seed: 1, JSON: true}); err != nil {
		t.Fatal(err)
	}
	if want := daemonBody(t, h, "/v1/simulate", serve.SimulateRequest{Spec: f, Duration: 0.002, Seed: 1}); !bytes.Equal(simOut.Bytes(), want) {
		t.Fatalf("RunSim JSON differs from /v1/simulate:\ncli    %s\ndaemon %s", simOut.Bytes(), want)
	}
}
