package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lognic/internal/core"
	"lognic/internal/serve"
	"lognic/internal/spec"
)

// specParse loads a small mixed-traffic spec for RunMix tests.
func specParse(t *testing.T) (spec.File, error) {
	t.Helper()
	return spec.Parse([]byte(`{
	  "name": "mixed",
	  "graph": {
	    "vertices": [
	      {"name": "in", "kind": "ingress"},
	      {"name": "ip", "throughput": "16Gbps", "parallelism": 4, "queue_capacity": 32},
	      {"name": "out", "kind": "egress"}
	    ],
	    "edges": [
	      {"from": "in", "to": "ip", "delta": 1},
	      {"from": "ip", "to": "out", "delta": 1}
	    ]
	  },
	  "traffic": {
	    "ingress_bw": "10Gbps",
	    "mix": [
	      {"weight": 0.8, "granularity": "64B"},
	      {"weight": 0.2, "granularity": 1500}
	    ]
	  }
	}`))
}

func testModel(t *testing.T) core.Model {
	t.Helper()
	g, err := core.NewBuilder("cli-test").
		AddIngress("in").
		AddIP("ip", 1e9, 2, 32).
		AddEgress("out").
		Connect("in", "ip", 1).
		Connect("ip", "out", 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return core.Model{
		Hardware: core.Hardware{InterfaceBW: 50e9},
		Graph:    g,
		Traffic:  core.Traffic{IngressBW: 0.8e9, Granularity: 1024},
	}
}

func TestEstimatePoint(t *testing.T) {
	pt, err := serve.EstimatePoint(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if pt.Throughput != 0.8e9 {
		t.Fatalf("Throughput = %v", pt.Throughput)
	}
	if pt.Latency <= 0 {
		t.Fatal("Latency must be positive")
	}
	if len(pt.Constraints) == 0 || len(pt.PathsLatency) != 1 {
		t.Fatalf("constraints = %d paths = %d", len(pt.Constraints), len(pt.PathsLatency))
	}
	if !strings.Contains(pt.Bottleneck, "ingress") {
		t.Fatalf("Bottleneck = %q", pt.Bottleneck)
	}
}

func TestRunPointText(t *testing.T) {
	var b strings.Builder
	if err := RunPoint(&b, testModel(t), false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"graph: cli-test", "throughput:", "bottleneck:", "constraints", "paths", "in -> ip -> out"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPointJSON(t *testing.T) {
	var b strings.Builder
	if err := RunPoint(&b, testModel(t), true); err != nil {
		t.Fatal(err)
	}
	var pt serve.PointResult
	if err := json.Unmarshal([]byte(b.String()), &pt); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if pt.Throughput != 0.8e9 {
		t.Fatalf("Throughput = %v", pt.Throughput)
	}
}

func TestRunPointInvalidModel(t *testing.T) {
	var b strings.Builder
	if err := RunPoint(&b, core.Model{}, false); err == nil {
		t.Fatal("invalid model should fail")
	}
}

func TestParseSweep(t *testing.T) {
	lo, hi, steps, err := ParseSweep("1Gbps:25Gbps:10")
	if err != nil {
		t.Fatal(err)
	}
	if lo != 1e9/8 || hi != 25e9/8 || steps != 10 {
		t.Fatalf("parsed %v %v %v", lo, hi, steps)
	}
	bad := []string{"", "1:2", "x:2:3", "1:y:3", "1:2:z", "1:2:1", "2Gbps:1Gbps:5"}
	for _, in := range bad {
		if _, _, _, err := ParseSweep(in); err == nil {
			t.Errorf("ParseSweep(%q) should fail", in)
		}
	}
}

func TestRunSweepText(t *testing.T) {
	var b strings.Builder
	if err := RunSweep(&b, testModel(t), "1Gbps:10Gbps:4", false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[0], "offered") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestRunSweepJSON(t *testing.T) {
	var b strings.Builder
	if err := RunSweep(&b, testModel(t), "1Gbps:10Gbps:3", true); err != nil {
		t.Fatal(err)
	}
	var pts []serve.PointResult
	if err := json.Unmarshal([]byte(b.String()), &pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Sweep output stays compact.
	if pts[0].PathsLatency != nil {
		t.Fatal("sweep points should omit path breakdowns")
	}
	if err := RunSweep(&b, testModel(t), "bogus", true); err == nil {
		t.Fatal("bad sweep arg should fail")
	}
}

func TestRunSimTextAndJSON(t *testing.T) {
	var b strings.Builder
	err := RunSim(&b, testModel(t), SimOptions{Duration: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"simulated:", "delivered", "latency:", "drop rate:", "vertices:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	b.Reset()
	if err := RunSim(&b, testModel(t), SimOptions{Duration: 0.02, Seed: 1, JSON: true, Deterministic: true}); err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(res["Vertices"]); err != nil {
		t.Fatal(err)
	}
	// Invalid duration surfaces as an error.
	if err := RunSim(&b, testModel(t), SimOptions{Duration: 0}); err == nil {
		t.Fatal("zero duration should fail")
	}
}

func TestLoadModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	specJSON := `{
	  "name": "file-test",
	  "graph": {
	    "vertices": [
	      {"name": "in", "kind": "ingress"},
	      {"name": "ip", "throughput": "8Gbps", "parallelism": 1, "queue_capacity": 8},
	      {"name": "out", "kind": "egress"}
	    ],
	    "edges": [
	      {"from": "in", "to": "ip", "delta": 1},
	      {"from": "ip", "to": "out", "delta": 1}
	    ]
	  },
	  "traffic": {"ingress_bw": "4Gbps", "granularity": 512}
	}`
	if err := os.WriteFile(path, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Graph.Name() != "file-test" {
		t.Fatalf("name = %q", m.Graph.Name())
	}
	if _, err := LoadModel(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file should fail")
	}
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(badPath); err == nil {
		t.Fatal("bad JSON should fail")
	}
}

func TestRunMix(t *testing.T) {
	f, err := specParse(t)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RunMix(&b, f, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "mixed throughput:") || !strings.Contains(out, "components:") {
		t.Fatalf("output:\n%s", out)
	}
	b.Reset()
	if err := RunMix(&b, f, true); err != nil {
		t.Fatal(err)
	}
	var res MixResult
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || len(res.Components) != 2 {
		t.Fatalf("result = %+v", res)
	}
}
