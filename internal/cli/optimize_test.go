package cli

import (
	"encoding/json"
	"strings"
	"testing"

	"lognic/internal/optimizer"
	"lognic/internal/serve"
)

func TestParseKnob(t *testing.T) {
	k, err := ParseKnob("ip.parallelism=1..16")
	if err != nil {
		t.Fatal(err)
	}
	if k.Vertex != "ip" || k.Param != "parallelism" || k.Lo != 1 || k.Hi != 16 {
		t.Fatalf("knob = %+v", k)
	}
	k, err = ParseKnob("ssd.queue=8..256")
	if err != nil {
		t.Fatal(err)
	}
	if k.Param != "queue" || k.Hi != 256 {
		t.Fatalf("knob = %+v", k)
	}
	bad := []string{
		"", "ip", "ip=1..2", "ip.speed=1..2", ".queue=1..2",
		"ip.queue=1", "ip.queue=x..2", "ip.queue=1..y",
		"ip.queue=0..4", "ip.queue=5..2",
	}
	for _, in := range bad {
		if _, err := ParseKnob(in); err == nil {
			t.Errorf("ParseKnob(%q) should fail", in)
		}
	}
}

func TestParseGoal(t *testing.T) {
	cases := map[string]optimizer.Goal{
		"latency": optimizer.MinimizeLatency, "min-latency": optimizer.MinimizeLatency,
		"throughput": optimizer.MaximizeThroughput, "max-throughput": optimizer.MaximizeThroughput,
		"goodput": optimizer.MaximizeGoodput, "max-goodput": optimizer.MaximizeGoodput,
	}
	for in, want := range cases {
		got, err := ParseGoal(in)
		if err != nil || got != want {
			t.Errorf("ParseGoal(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseGoal("fastest"); err == nil {
		t.Fatal("unknown goal should fail")
	}
}

func TestRunOptimizeQueueKnob(t *testing.T) {
	m := testModel(t)
	m.Traffic.IngressBW = 0.95e9 // near saturation: queue size matters
	var b strings.Builder
	err := RunOptimize(&b, m, "goodput", []string{"ip.queue=1..32"}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "goal:      max-goodput") {
		t.Fatalf("output:\n%s", out)
	}
	// Goodput is monotone in queue capacity: the search must pick the max.
	if !strings.Contains(out, "ip.queue = 32") {
		t.Fatalf("expected queue=32:\n%s", out)
	}
	if !strings.Contains(out, "exhaustive: true") {
		t.Fatalf("expected exhaustive search:\n%s", out)
	}
}

func TestRunOptimizeLatencyGoalJSON(t *testing.T) {
	m := testModel(t)
	var b strings.Builder
	err := RunOptimize(&b, m, "latency", []string{"ip.queue=1..8"}, true)
	if err != nil {
		t.Fatal(err)
	}
	var res serve.OptimizeResult
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Goal != "min-latency" || res.Objective <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// Smaller queues mean less modeled queueing at this load: expect 1.
	if res.Knobs["ip.queue"] != 1 {
		t.Fatalf("knobs = %v", res.Knobs)
	}
}

func TestRunOptimizeErrors(t *testing.T) {
	m := testModel(t)
	var b strings.Builder
	if err := RunOptimize(&b, m, "latency", nil, false); err == nil {
		t.Fatal("no knobs should fail")
	}
	if err := RunOptimize(&b, m, "warp", []string{"ip.queue=1..4"}, false); err == nil {
		t.Fatal("bad goal should fail")
	}
	if err := RunOptimize(&b, m, "latency", []string{"bogus"}, false); err == nil {
		t.Fatal("bad knob should fail")
	}
	if err := RunOptimize(&b, m, "latency", []string{"ghost.queue=1..4"}, false); err == nil {
		t.Fatal("unknown vertex should fail")
	}
}
