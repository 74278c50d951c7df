package optimizer

import (
	"errors"
	"math"
	"strings"
	"testing"

	"lognic/internal/core"
	"lognic/internal/numopt"
)

func TestGoalFromName(t *testing.T) {
	cases := map[string]Goal{
		"latency": MinimizeLatency, "min-latency": MinimizeLatency,
		"throughput": MaximizeThroughput, "max-throughput": MaximizeThroughput,
		"goodput": MaximizeGoodput, "max-goodput": MaximizeGoodput,
	}
	for name, want := range cases {
		g, err := GoalFromName(name)
		if err != nil || g != want {
			t.Errorf("GoalFromName(%q) = %v, %v; want %v", name, g, err, want)
		}
	}
	if _, err := GoalFromName("speed"); err == nil {
		t.Fatal("unknown goal should fail")
	}
}

func TestApplyKnobs(t *testing.T) {
	m, err := twoPathModel(t, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	knobs := []IntKnob{
		{Vertex: "fast", Param: KnobParallelism, Lo: 1, Hi: 8},
		{Vertex: "slow", Param: KnobQueue, Lo: 1, Hi: 64},
	}
	mm, err := ApplyKnobs(m, knobs, []int{4, 48})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := mm.Graph.Vertex("fast"); v.Parallelism != 4 {
		t.Fatalf("fast.Parallelism = %d, want 4", v.Parallelism)
	}
	if v, _ := mm.Graph.Vertex("slow"); v.QueueCapacity != 48 {
		t.Fatalf("slow.QueueCapacity = %d, want 48", v.QueueCapacity)
	}
	// The input model must be untouched (value semantics).
	if v, _ := m.Graph.Vertex("fast"); v.Parallelism != 1 {
		t.Fatalf("input model mutated: fast.Parallelism = %d", v.Parallelism)
	}
	if _, err := ApplyKnobs(m, knobs, []int{4}); err == nil {
		t.Fatal("value/knob count mismatch should fail")
	}
	if _, err := ApplyKnobs(m, []IntKnob{{Vertex: "ghost", Param: KnobQueue}}, []int{3}); err == nil {
		t.Fatal("unknown vertex should fail")
	}
}

func TestIntKnobValidate(t *testing.T) {
	m, err := twoPathModel(t, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	good := IntKnob{Vertex: "fast", Param: KnobQueue, Lo: 1, Hi: 4}
	if err := good.Validate(m.Graph); err != nil {
		t.Fatal(err)
	}
	if good.Name() != "fast.queue" {
		t.Fatalf("Name() = %q", good.Name())
	}
	bad := []IntKnob{
		{Vertex: "fast", Param: "speed", Lo: 1, Hi: 4},
		{Vertex: "fast", Param: KnobQueue, Lo: 0, Hi: 4},
		{Vertex: "fast", Param: KnobQueue, Lo: 4, Hi: 1},
		{Vertex: "ghost", Param: KnobQueue, Lo: 1, Hi: 4},
	}
	for _, k := range bad {
		if err := k.Validate(m.Graph); err == nil {
			t.Errorf("Validate(%+v) should fail", k)
		}
	}
}

func TestSolveKnobsQueueSweep(t *testing.T) {
	m, err := twoPathModel(t, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	knobs := []IntKnob{{Vertex: "slow", Param: KnobQueue, Lo: 1, Hi: 16}}
	sol, err := SolveKnobs(m, MaximizeGoodput, knobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Values) != 1 || sol.Values[0] < 1 || sol.Values[0] > 16 {
		t.Fatalf("Values = %v, want one value in 1..16", sol.Values)
	}
	if !sol.Exhaustive || sol.Evaluated != 16 {
		t.Fatalf("Evaluated=%d Exhaustive=%v, want 16/true", sol.Evaluated, sol.Exhaustive)
	}
	// Maximization objectives are sign-corrected back to a positive rate.
	if sol.Objective <= 0 || math.IsInf(sol.Objective, 0) {
		t.Fatalf("Objective = %v, want positive finite goodput", sol.Objective)
	}
	// Exhaustive check: no other setting beats the reported best.
	for q := 1; q <= 16; q++ {
		mm, err := ApplyKnobs(m, knobs, []int{q})
		if err != nil {
			t.Fatal(err)
		}
		v, err := Score(mm, MaximizeGoodput)
		if err != nil {
			t.Fatal(err)
		}
		if -v > sol.Objective*(1+1e-12) {
			t.Fatalf("queue=%d goodput %v beats reported best %v", q, -v, sol.Objective)
		}
	}
}

func TestSolveKnobsLatencyObjectiveSign(t *testing.T) {
	m, err := twoPathModel(t, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveKnobs(m, MinimizeLatency,
		[]IntKnob{{Vertex: "fast", Param: KnobParallelism, Lo: 1, Hi: 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective <= 0 {
		t.Fatalf("latency objective = %v, want positive seconds", sol.Objective)
	}
}

func TestSolveKnobsNoFeasible(t *testing.T) {
	// A graph whose egress edge splits don't cover the ingress is
	// structurally valid but fails model evaluation, so every knob
	// setting scores +Inf.
	g, err := core.NewBuilder("broken").
		AddIngress("in").
		AddVertex(core.Vertex{Name: "ip", Kind: core.KindIP, Throughput: 1e9, Parallelism: 1, QueueCapacity: 8}).
		AddEgress("out").
		AddEdge(core.Edge{From: "in", To: "ip", Delta: 1}).
		AddEdge(core.Edge{From: "ip", To: "out", Delta: 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m := core.Model{Graph: g, Traffic: core.Traffic{IngressBW: -1, Granularity: 1024}}
	_, err = SolveKnobs(m, MinimizeLatency,
		[]IntKnob{{Vertex: "ip", Param: KnobQueue, Lo: 1, Hi: 4}}, 0)
	if !errors.Is(err, ErrNoFeasible) {
		t.Fatalf("err = %v, want ErrNoFeasible", err)
	}
}

func TestSolveKnobsValidatesUpFront(t *testing.T) {
	m, err := twoPathModel(t, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveKnobs(m, MinimizeLatency, nil, 0); err == nil {
		t.Fatal("no knobs should fail")
	}
	_, err = SolveKnobs(m, MinimizeLatency,
		[]IntKnob{{Vertex: "ghost", Param: KnobQueue, Lo: 1, Hi: 2}}, 0)
	if err == nil || !strings.Contains(err.Error(), "unknown vertex") {
		t.Fatalf("err = %v, want unknown-vertex validation error", err)
	}
}

// Solve must surface the winning run's convergence diagnostics and wrap
// numopt.ErrNoFeasibleStart when the whole space is infeasible.
func TestSolveDiagnosticsAndInfeasibleWrap(t *testing.T) {
	sol, err := Solve(Problem{
		Build: func(x []float64) (core.Model, error) { return twoPathModel(t, x[0]) },
		Goal:  MinimizeLatency,
		Bounds: numopt.Bounds{
			Lo: []float64{0.05},
			Hi: []float64{0.95},
		},
		MaxIter: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatal("steering problem should converge within 500 iterations")
	}
	if sol.Iterations <= 0 {
		t.Fatalf("Iterations = %d, want > 0", sol.Iterations)
	}

	_, err = Solve(Problem{
		Build: func(x []float64) (core.Model, error) {
			return core.Model{}, errors.New("always infeasible")
		},
		Goal:   MinimizeLatency,
		Bounds: numopt.Bounds{Lo: []float64{0}, Hi: []float64{1}},
	})
	if !errors.Is(err, numopt.ErrNoFeasibleStart) {
		t.Fatalf("err = %v, want wrapped numopt.ErrNoFeasibleStart", err)
	}
}

// sixVertexModel is a fork-join pipeline, in → parse → {fast, slow} →
// merge → out, with three knobs over its IPs: 8×8×4 = 256 points, small
// enough for the exhaustive search.
func sixVertexModel(tb testing.TB) (core.Model, []IntKnob) {
	tb.Helper()
	g, err := core.NewBuilder("fork-join").
		AddIngress("in").
		AddIP("parse", 4e9, 2, 32).
		AddIP("fast", 2e9, 1, 16).
		AddIP("slow", 1e9, 1, 16).
		AddIP("merge", 6e9, 1, 64).
		AddEgress("out").
		Connect("in", "parse", 1).
		AddEdge(core.Edge{From: "parse", To: "fast", Delta: 0.6, Alpha: 0.6}).
		AddEdge(core.Edge{From: "parse", To: "slow", Delta: 0.4, Alpha: 0.4, Beta: 0.4}).
		AddEdge(core.Edge{From: "fast", To: "merge", Delta: 0.6}).
		AddEdge(core.Edge{From: "slow", To: "merge", Delta: 0.4}).
		Connect("merge", "out", 1).
		Build()
	if err != nil {
		tb.Fatal(err)
	}
	m := core.Model{
		Hardware: core.Hardware{InterfaceBW: 50e9 / 8, MemoryBW: 160e9},
		Graph:    g,
		Traffic:  core.Traffic{IngressBW: 1.2e9, Granularity: 1500},
	}
	return m, []IntKnob{
		{Vertex: "parse", Param: KnobParallelism, Lo: 1, Hi: 8},
		{Vertex: "fast", Param: KnobQueue, Lo: 1, Hi: 8},
		{Vertex: "slow", Param: KnobParallelism, Lo: 1, Hi: 4},
	}
}

// ApplyKnobs is the optimizer's per-candidate cost: each knob must copy
// the graph sharing its topology, not rebuild it.
func TestApplyKnobsAllocs(t *testing.T) {
	m, knobs := sixVertexModel(t)
	values := []int{3, 5, 2}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ApplyKnobs(m, knobs, values); err != nil {
			t.Fatal(err)
		}
	})
	// One graph header and one vertex slice per knob; a rebuild through
	// NewGraph costs dozens of allocations per knob.
	if limit := float64(2 * len(knobs)); allocs > limit {
		t.Fatalf("ApplyKnobs: %.0f allocs per candidate, want at most %.0f", allocs, limit)
	}
}

func BenchmarkSolveKnobs(b *testing.B) {
	m, knobs := sixVertexModel(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := SolveKnobs(m, MinimizeLatency, knobs, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Exhaustive || sol.Evaluated != 256 {
			b.Fatalf("searched %d points (exhaustive %v), want all 256", sol.Evaluated, sol.Exhaustive)
		}
	}
}
