package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// linearGraph builds ingress -> ip -> egress with the given IP parameters.
func linearGraph(t *testing.T, p float64, par, qcap int) *Graph {
	t.Helper()
	g, err := NewBuilder("linear").
		AddIngress("rx").
		AddIP("ip", p, par, qcap).
		AddEgress("tx").
		Connect("rx", "ip", 1).
		Connect("ip", "tx", 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// nvmeofGraph mirrors Figure 2(c): ingress -> IP1(core) -> IP2(SSD) ->
// IP3(core) -> egress.
func nvmeofGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewBuilder("nvmeof").
		AddIngress("eth-in").
		AddIP("ip1", 5e9, 4, 32).
		AddIP("ip2", 3e9, 8, 64).
		AddIP("ip3", 5e9, 4, 32).
		AddEgress("eth-out").
		AddEdge(Edge{From: "eth-in", To: "ip1", Delta: 1, Alpha: 1}).
		AddEdge(Edge{From: "ip1", To: "ip2", Delta: 1, Alpha: 1, Beta: 1}).
		AddEdge(Edge{From: "ip2", To: "ip3", Delta: 1, Alpha: 1, Beta: 1}).
		AddEdge(Edge{From: "ip3", To: "eth-out", Delta: 1, Alpha: 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderLinear(t *testing.T) {
	g := linearGraph(t, 1e9, 2, 16)
	if g.Name() != "linear" {
		t.Fatalf("Name = %q", g.Name())
	}
	if len(g.Vertices()) != 3 || len(g.Edges()) != 2 {
		t.Fatalf("got %d vertices, %d edges", len(g.Vertices()), len(g.Edges()))
	}
	v, ok := g.Vertex("ip")
	if !ok {
		t.Fatal("vertex ip missing")
	}
	if v.Parallelism != 2 || v.QueueCapacity != 16 || v.Throughput != 1e9 {
		t.Fatalf("vertex = %+v", v)
	}
	if v.Acceleration != 1 || v.Partition != 1 {
		t.Fatalf("defaults not applied: %+v", v)
	}
	if got := g.Ingresses(); len(got) != 1 || got[0] != "rx" {
		t.Fatalf("Ingresses = %v", got)
	}
	if got := g.Egresses(); len(got) != 1 || got[0] != "tx" {
		t.Fatalf("Egresses = %v", got)
	}
}

func TestGraphValidationErrors(t *testing.T) {
	ing := Vertex{Name: "in", Kind: KindIngress}
	eg := Vertex{Name: "out", Kind: KindEgress}
	ip := Vertex{Name: "ip", Kind: KindIP, Throughput: 1e9}
	full := func(from, to string) Edge { return Edge{From: from, To: to, Delta: 1} }

	cases := []struct {
		name     string
		vertices []Vertex
		edges    []Edge
		errPart  string
	}{
		{"no ingress", []Vertex{eg, ip}, []Edge{full("ip", "out")}, "no ingress"},
		{"no egress", []Vertex{ing, ip}, []Edge{full("in", "ip")}, "no egress"},
		{"dup vertex", []Vertex{ing, ing, eg}, []Edge{full("in", "out")}, "duplicate vertex"},
		{"unknown from", []Vertex{ing, eg}, []Edge{full("ghost", "out")}, "unknown vertex"},
		{"unknown to", []Vertex{ing, eg}, []Edge{full("in", "ghost")}, "unknown vertex"},
		{"dup edge", []Vertex{ing, eg}, []Edge{full("in", "out"), full("in", "out")}, "duplicate edge"},
		{"into ingress", []Vertex{ing, ip, eg}, []Edge{full("in", "ip"), full("ip", "in"), full("ip", "out")}, "enters an ingress"},
		{"out of egress", []Vertex{ing, ip, eg}, []Edge{full("in", "out"), full("out", "ip"), full("ip", "out")}, "leaves an egress"},
		{"unreachable", []Vertex{ing, ip, eg}, []Edge{full("in", "out")}, "unreachable"},
		{"dead end", []Vertex{ing, ip, eg}, []Edge{full("in", "ip"), full("in", "out")}, "cannot reach"},
		{"neg delta", []Vertex{ing, eg}, []Edge{{From: "in", To: "out", Delta: -1}}, "invalid delta"},
		{"nan alpha", []Vertex{ing, eg}, []Edge{{From: "in", To: "out", Alpha: math.NaN()}}, "invalid alpha"},
		{"neg bw", []Vertex{ing, eg}, []Edge{{From: "in", To: "out", Bandwidth: -5}}, "invalid bandwidth"},
		{"empty vertex name", []Vertex{{Kind: KindIP}, ing, eg}, []Edge{full("in", "out")}, "empty name"},
		{"neg overhead", []Vertex{{Name: "x", Kind: KindIP, Overhead: -1}, ing, eg}, []Edge{full("in", "out")}, "invalid overhead"},
		{"ingress queue", []Vertex{{Name: "in", Kind: KindIngress, QueueCapacity: 4}, eg}, []Edge{full("in", "out")}, "do not queue"},
	}
	for _, c := range cases {
		_, err := NewGraph("bad", c.vertices, c.edges)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.errPart)
		}
	}
}

func TestGraphCycleRejected(t *testing.T) {
	vs := []Vertex{
		{Name: "in", Kind: KindIngress},
		{Name: "a", Kind: KindIP, Throughput: 1},
		{Name: "b", Kind: KindIP, Throughput: 1},
		{Name: "out", Kind: KindEgress},
	}
	es := []Edge{
		{From: "in", To: "a", Delta: 1},
		{From: "a", To: "b", Delta: 1},
		{From: "b", To: "a", Delta: 1},
		{From: "b", To: "out", Delta: 1},
	}
	if _, err := NewGraph("cycle", vs, es); err == nil {
		t.Fatal("expected cycle rejection")
	}
}

func TestInOutEdgesAndDeltaIn(t *testing.T) {
	g := nvmeofGraph(t)
	if got := g.InDegree("ip2"); got != 1 {
		t.Fatalf("InDegree(ip2) = %d", got)
	}
	if got := g.DeltaIn("ip2"); got != 1 {
		t.Fatalf("DeltaIn(ip2) = %v", got)
	}
	in := g.InEdges("ip2")
	if len(in) != 1 || in[0].From != "ip1" {
		t.Fatalf("InEdges(ip2) = %+v", in)
	}
	out := g.OutEdges("ip1")
	if len(out) != 1 || out[0].To != "ip2" {
		t.Fatalf("OutEdges(ip1) = %+v", out)
	}
	if _, ok := g.Edge("ip1", "ip3"); ok {
		t.Fatal("nonexistent edge found")
	}
}

func TestPathsSingle(t *testing.T) {
	g := nvmeofGraph(t)
	paths, err := g.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("got %d paths", len(paths))
	}
	if math.Abs(paths[0].Weight-1) > 1e-12 {
		t.Fatalf("weight = %v, want 1", paths[0].Weight)
	}
	want := []string{"eth-in", "ip1", "ip2", "ip3", "eth-out"}
	for i, v := range want {
		if paths[0].Vertices[i] != v {
			t.Fatalf("path = %v, want %v", paths[0].Vertices, want)
		}
	}
}

func TestPathsFanOutWeights(t *testing.T) {
	// 70/30 split at a scheduler vertex.
	g, err := NewBuilder("fanout").
		AddIngress("in").
		AddIP("sched", 10e9, 1, 0).
		AddIP("a1", 1e9, 1, 0).
		AddIP("a2", 2e9, 1, 0).
		AddEgress("out").
		AddEdge(Edge{From: "in", To: "sched", Delta: 1, Alpha: 1}).
		AddEdge(Edge{From: "sched", To: "a1", Delta: 0.7, Alpha: 0.7}).
		AddEdge(Edge{From: "sched", To: "a2", Delta: 0.3, Alpha: 0.3}).
		AddEdge(Edge{From: "a1", To: "out", Delta: 0.7, Alpha: 0.7}).
		AddEdge(Edge{From: "a2", To: "out", Delta: 0.3, Alpha: 0.3}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := g.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths", len(paths))
	}
	// Heaviest first.
	if math.Abs(paths[0].Weight-0.7) > 1e-12 || math.Abs(paths[1].Weight-0.3) > 1e-12 {
		t.Fatalf("weights = %v, %v; want 0.7, 0.3", paths[0].Weight, paths[1].Weight)
	}
	sum := paths[0].Weight + paths[1].Weight
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestWithVertex(t *testing.T) {
	g := linearGraph(t, 1e9, 1, 8)
	v, _ := g.Vertex("ip")
	v.Parallelism = 4
	g2, err := g.WithVertex(v)
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := g2.Vertex("ip")
	if v2.Parallelism != 4 {
		t.Fatalf("Parallelism = %d, want 4", v2.Parallelism)
	}
	// Original unchanged.
	v1, _ := g.Vertex("ip")
	if v1.Parallelism != 1 {
		t.Fatal("WithVertex mutated original graph")
	}
	if _, err := g.WithVertex(Vertex{Name: "ghost"}); err == nil {
		t.Fatal("expected error for unknown vertex")
	}
}

func TestWithEdge(t *testing.T) {
	g := linearGraph(t, 1e9, 1, 8)
	e, _ := g.Edge("rx", "ip")
	e.Delta = 0.5
	e.Alpha = 0.5
	g2, err := g.WithEdge(e)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := g2.Edge("rx", "ip")
	if e2.Delta != 0.5 {
		t.Fatalf("Delta = %v, want 0.5", e2.Delta)
	}
	e1, _ := g.Edge("rx", "ip")
	if e1.Delta != 1 {
		t.Fatal("WithEdge mutated original graph")
	}
	if _, err := g.WithEdge(Edge{From: "a", To: "b"}); err == nil {
		t.Fatal("expected error for unknown edge")
	}
}

func TestVertexKindString(t *testing.T) {
	cases := map[VertexKind]string{
		KindIP:          "ip",
		KindIngress:     "ingress",
		KindEgress:      "egress",
		KindRateLimiter: "ratelimiter",
		VertexKind(42):  "kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestMultiIngressPaths(t *testing.T) {
	// Two ingress ports feeding one IP.
	g, err := NewBuilder("dual").
		AddIngress("rx0").
		AddIngress("rx1").
		AddIP("ip", 1e9, 1, 0).
		AddEgress("tx").
		AddEdge(Edge{From: "rx0", To: "ip", Delta: 0.5, Alpha: 0.5}).
		AddEdge(Edge{From: "rx1", To: "ip", Delta: 0.5, Alpha: 0.5}).
		AddEdge(Edge{From: "ip", To: "tx", Delta: 1, Alpha: 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := g.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	if g.InDegree("ip") != 2 || g.DeltaIn("ip") != 1 {
		t.Fatalf("indegree=%d deltaIn=%v", g.InDegree("ip"), g.DeltaIn("ip"))
	}
}

// fanOutModel is a 70/30 split at a scheduler, with queues, so latency
// reads every path and vertex.
func fanOutModel(t *testing.T) Model {
	t.Helper()
	g, err := NewBuilder("fanout").
		AddIngress("in").
		AddIP("sched", 10e9, 1, 16).
		AddIP("a1", 1e9, 2, 32).
		AddIP("a2", 2e9, 1, 32).
		AddEgress("out").
		AddEdge(Edge{From: "in", To: "sched", Delta: 1, Alpha: 1}).
		AddEdge(Edge{From: "sched", To: "a1", Delta: 0.7, Alpha: 0.7}).
		AddEdge(Edge{From: "sched", To: "a2", Delta: 0.3, Alpha: 0.3, Bandwidth: 4e9}).
		AddEdge(Edge{From: "a1", To: "out", Delta: 0.7, Alpha: 0.7}).
		AddEdge(Edge{From: "a2", To: "out", Delta: 0.3, Alpha: 0.3}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return Model{
		Hardware: Hardware{InterfaceBW: 6.25e9, MemoryBW: 20e9},
		Graph:    g,
		Traffic:  Traffic{IngressBW: 0.8e9, Granularity: 1500},
	}
}

// Graph copies share one path cache, so what Paths and Latency hand out
// must be copies: scribbling on them cannot reach the graph, its
// WithVertex copies, or later evaluations.
func TestPathsAreCopies(t *testing.T) {
	m := fanOutModel(t)
	g := m.Graph
	wantPaths, err := g.Paths()
	if err != nil {
		t.Fatal(err)
	}
	wantLat, err := m.Latency()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := g.Vertex("a1")
	copyOf, err := g.WithVertex(v)
	if err != nil {
		t.Fatal(err)
	}

	ps, _ := g.Paths()
	ps[0].Vertices[1] = "scribbled"
	ps[0].Weight = 42
	lat, _ := m.Latency()
	lat.Paths[0].Vertices[0] = "scribbled"
	lat.Paths[1].Vertices = append(lat.Paths[1].Vertices, "scribbled")

	for name, gg := range map[string]*Graph{"graph": g, "WithVertex copy": copyOf} {
		got, err := gg.Paths()
		if err != nil || !reflect.DeepEqual(got, wantPaths) {
			t.Errorf("%s: Paths = %v, %v after mutation; want %v", name, got, err, wantPaths)
		}
		mm := m
		mm.Graph = gg
		gotLat, err := mm.Latency()
		if err != nil || !reflect.DeepEqual(gotLat, wantLat) {
			t.Errorf("%s: Latency changed after mutation:\n got %+v\nwant %+v", name, gotLat, wantLat)
		}
	}
}

// The path cache fills on first use; concurrent first uses of one fresh
// graph must agree (and be race-free under -race).
func TestPathsConcurrentFirstUse(t *testing.T) {
	m := fanOutModel(t)
	want := fmt.Sprint(m.Estimate())
	wantPaths := fmt.Sprint(m.Graph.Paths())
	fresh, err := NewGraph(m.Graph.Name(), m.Graph.Vertices(), m.Graph.Edges())
	if err != nil {
		t.Fatal(err)
	}
	m.Graph = fresh
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if got := fmt.Sprint(m.Graph.Paths()); got != wantPaths {
					errs <- "Paths: " + got
				}
			}
			if got := fmt.Sprint(m.Estimate()); got != want {
				errs <- "Estimate: " + got
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// A ladder of 13 two-way forks has 2^13 paths, past maxPaths: path
// enumeration must stop with an error rather than run away.
func TestPathsLimit(t *testing.T) {
	b := NewBuilder("ladder").AddIngress("in").AddEgress("out")
	prev := "in"
	for i := 0; i < 13; i++ {
		a, c, join := fmt.Sprint("a", i), fmt.Sprint("c", i), fmt.Sprint("j", i)
		b.AddIP(a, 1e9, 1, 0).AddIP(c, 1e9, 1, 0).AddIP(join, 1e9, 1, 0).
			Connect(prev, a, 0.5).Connect(prev, c, 0.5).
			Connect(a, join, 0.5).Connect(c, join, 0.5)
		prev = join
	}
	g, err := b.Connect(prev, "out", 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Paths(); err == nil || !strings.Contains(err.Error(), "more than 4096 paths") {
		t.Fatalf("Paths error = %v, want the path limit", err)
	}
	m := Model{Hardware: Hardware{InterfaceBW: 10e9}, Graph: g, Traffic: Traffic{IngressBW: 1e9, Granularity: 1500}}
	if _, err := m.Latency(); err == nil || !strings.Contains(err.Error(), "more than 4096 paths") {
		t.Fatalf("Latency error = %v, want the path limit", err)
	}
}
