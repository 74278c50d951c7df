package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Graph is a validated LogNIC execution graph: a DAG whose vertices are IP
// blocks plus ingress/egress engines and whose edges are data movements
// (paper §3.3). Construct with NewGraph or incrementally with a Builder.
//
// A Graph is immutable. NewGraph computes its topology — everything but
// the vertices' parameters — once, and every copy WithVertex derives
// from it shares that topology.
type Graph struct {
	name     string
	vertices []Vertex // insertion order: vertex i of topo
	topo     *topology
}

// topology is the part of a graph that vertex parameters cannot change:
// vertex names and kinds, the edges and the traffic-weighted paths. It is
// read-only once NewGraph returns, except for the paths, which are
// enumerated on first use.
type topology struct {
	names    []string       // vertex names, insertion order
	index    map[string]int // vertex name → index
	edges    []Edge         // insertion order
	from, to []int          // edge endpoints as vertex indices
	in, out  [][]int        // per vertex: its edges' indices, insertion order
	deltaIn  []float64      // per vertex: Σδ over in-edges
	deltaOut []float64      // per vertex: Σδ over out-edges
	ingress  []int
	egress   []int

	pathsOnce sync.Once
	paths     []pathHops // heaviest first
	pathsErr  error
}

// pathHops is one weighted path in index form: its vertices, and the
// edge taken after each vertex but the last.
type pathHops struct {
	vertices, edges []int
	weight          float64
}

// Builder assembles a Graph incrementally; errors accumulate and surface at
// Build so call sites stay linear.
type Builder struct {
	name     string
	vertices []Vertex
	edges    []Edge
	errs     []error
}

// NewBuilder returns a Builder for a named execution graph.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddVertex appends a vertex.
func (b *Builder) AddVertex(v Vertex) *Builder {
	b.vertices = append(b.vertices, v)
	return b
}

// AddIngress appends an ingress engine vertex with the given name.
func (b *Builder) AddIngress(name string) *Builder {
	return b.AddVertex(Vertex{Name: name, Kind: KindIngress})
}

// AddEgress appends an egress engine vertex with the given name.
func (b *Builder) AddEgress(name string) *Builder {
	return b.AddVertex(Vertex{Name: name, Kind: KindEgress})
}

// AddIP appends an IP vertex with the given compute throughput
// (bytes/second), parallelism degree and queue capacity; further fields can
// be set with AddVertex instead.
func (b *Builder) AddIP(name string, throughput float64, parallelism, queueCap int) *Builder {
	return b.AddVertex(Vertex{
		Name:          name,
		Kind:          KindIP,
		Throughput:    throughput,
		Parallelism:   parallelism,
		QueueCapacity: queueCap,
	})
}

// AddEdge appends an edge.
func (b *Builder) AddEdge(e Edge) *Builder {
	b.edges = append(b.edges, e)
	return b
}

// Connect appends a plain edge carrying the full traffic (δ=frac) over the
// interface medium (α=frac).
func (b *Builder) Connect(from, to string, frac float64) *Builder {
	return b.AddEdge(Edge{From: from, To: to, Delta: frac, Alpha: frac})
}

// Build validates and freezes the graph.
func (b *Builder) Build() (*Graph, error) {
	return NewGraph(b.name, b.vertices, b.edges)
}

// NewGraph validates vertices and edges and returns an immutable execution
// graph. Rules enforced (beyond per-field validation):
//   - at least one ingress and one egress vertex;
//   - vertex names unique, edge endpoints declared, no duplicate edges;
//   - the graph is a DAG;
//   - every vertex lies on some ingress→egress path (no dead data ends);
//   - ingress vertices have no incoming edges, egress no outgoing.
//
// NewGraph copies its arguments; the caller may reuse them.
func NewGraph(name string, vertices []Vertex, edges []Edge) (*Graph, error) {
	if name == "" {
		name = "graph"
	}
	n := len(vertices)
	t := &topology{
		names:    make([]string, n),
		index:    make(map[string]int, n),
		in:       make([][]int, n),
		out:      make([][]int, n),
		deltaIn:  make([]float64, n),
		deltaOut: make([]float64, n),
	}
	vs := make([]Vertex, n)
	for i, v := range vertices {
		v = v.normalized()
		if err := v.validate(); err != nil {
			return nil, err
		}
		if _, dup := t.index[v.Name]; dup {
			return nil, fmt.Errorf("core: duplicate vertex %q", v.Name)
		}
		t.index[v.Name] = i
		t.names[i] = v.Name
		vs[i] = v
		switch v.Kind {
		case KindIngress:
			t.ingress = append(t.ingress, i)
		case KindEgress:
			t.egress = append(t.egress, i)
		}
	}
	if len(t.ingress) == 0 {
		return nil, fmt.Errorf("core: graph %q has no ingress vertex", name)
	}
	if len(t.egress) == 0 {
		return nil, fmt.Errorf("core: graph %q has no egress vertex", name)
	}
	t.edges = make([]Edge, 0, len(edges))
	t.from = make([]int, 0, len(edges))
	t.to = make([]int, 0, len(edges))
	for _, e := range edges {
		if err := e.validate(); err != nil {
			return nil, err
		}
		from, ok := t.index[e.From]
		if !ok {
			return nil, fmt.Errorf("core: edge references unknown vertex %q", e.From)
		}
		to, ok := t.index[e.To]
		if !ok {
			return nil, fmt.Errorf("core: edge references unknown vertex %q", e.To)
		}
		for _, j := range t.out[from] {
			if t.to[j] == to {
				return nil, fmt.Errorf("core: duplicate edge %s->%s", e.From, e.To)
			}
		}
		if vs[to].Kind == KindIngress {
			return nil, fmt.Errorf("core: edge %s->%s enters an ingress engine", e.From, e.To)
		}
		if vs[from].Kind == KindEgress {
			return nil, fmt.Errorf("core: edge %s->%s leaves an egress engine", e.From, e.To)
		}
		if from == to {
			return nil, fmt.Errorf("graph: self loop on %q", e.From)
		}
		j := len(t.edges)
		t.edges = append(t.edges, e)
		t.from = append(t.from, from)
		t.to = append(t.to, to)
		t.out[from] = append(t.out[from], j)
		t.in[to] = append(t.in[to], j)
		t.deltaOut[from] += e.Delta
		t.deltaIn[to] += e.Delta
	}
	if !t.acyclic() {
		return nil, fmt.Errorf("core: graph %q contains a cycle", name)
	}
	// Every vertex must be reachable from an ingress and reach an egress.
	fromIngress := t.reach(t.ingress, t.out, t.to)
	toEgress := t.reach(t.egress, t.in, t.from)
	for i, v := range t.names {
		if !fromIngress[i] {
			return nil, fmt.Errorf("core: vertex %q unreachable from any ingress", v)
		}
		if !toEgress[i] {
			return nil, fmt.Errorf("core: vertex %q cannot reach any egress", v)
		}
	}
	return &Graph{name: name, vertices: vs, topo: t}, nil
}

// acyclic runs Kahn's algorithm: the graph is a DAG iff every vertex
// leaves the ready list.
func (t *topology) acyclic() bool {
	indeg := make([]int, len(t.names))
	ready := make([]int, 0, len(t.names))
	for i := range t.names {
		if indeg[i] = len(t.in[i]); indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	done := 0
	for ; done < len(ready); done++ {
		for _, j := range t.out[ready[done]] {
			if indeg[t.to[j]]--; indeg[t.to[j]] == 0 {
				ready = append(ready, t.to[j])
			}
		}
	}
	return done == len(t.names)
}

// reach marks every vertex reachable from the starts, following adj (an
// edge-index list per vertex) to the endpoint end[edge]: out and to walk
// forward, in and from walk backward.
func (t *topology) reach(starts []int, adj [][]int, end []int) []bool {
	seen := make([]bool, len(t.names))
	stack := append(make([]int, 0, len(t.names)), starts...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		for _, j := range adj[v] {
			if !seen[end[j]] {
				stack = append(stack, end[j])
			}
		}
	}
	return seen
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// Vertices returns the vertices in insertion order.
func (g *Graph) Vertices() []Vertex { return slices.Clone(g.vertices) }

// Vertex returns the named vertex.
func (g *Graph) Vertex(name string) (Vertex, bool) {
	i, ok := g.topo.index[name]
	if !ok {
		return Vertex{}, false
	}
	return g.vertices[i], true
}

// Edges returns the edges in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.topo.edges))
	copy(out, g.topo.edges)
	return out
}

// Edge returns the edge between two vertices.
func (g *Graph) Edge(from, to string) (Edge, bool) {
	i, ok := g.topo.index[from]
	if !ok {
		return Edge{}, false
	}
	for _, j := range g.topo.out[i] {
		if e := g.topo.edges[j]; e.To == to {
			return e, true
		}
	}
	return Edge{}, false
}

// InEdges returns the edges entering a vertex, in edge insertion order.
func (g *Graph) InEdges(name string) []Edge { return g.edgesAt(name, g.topo.in) }

// OutEdges returns the edges leaving a vertex, in edge insertion order.
func (g *Graph) OutEdges(name string) []Edge { return g.edgesAt(name, g.topo.out) }

func (g *Graph) edgesAt(name string, adj [][]int) []Edge {
	i, ok := g.topo.index[name]
	if !ok || len(adj[i]) == 0 {
		return nil
	}
	out := make([]Edge, len(adj[i]))
	for k, j := range adj[i] {
		out[k] = g.topo.edges[j]
	}
	return out
}

// InDegree returns the number of edges entering a vertex — the
// indegree(v_i) of Equations 7 and 11.
func (g *Graph) InDegree(name string) int {
	i, ok := g.topo.index[name]
	if !ok {
		return 0
	}
	return len(g.topo.in[i])
}

// DeltaIn returns Σ_j δ_{e_ji}, the total incoming data-transfer fraction
// of a vertex.
func (g *Graph) DeltaIn(name string) float64 {
	i, ok := g.topo.index[name]
	if !ok {
		return 0
	}
	return g.topo.deltaIn[i]
}

// Ingresses returns ingress vertex names in insertion order.
func (g *Graph) Ingresses() []string { return g.topo.namesOf(g.topo.ingress) }

// Egresses returns egress vertex names in insertion order.
func (g *Graph) Egresses() []string { return g.topo.namesOf(g.topo.egress) }

func (t *topology) namesOf(idx []int) []string {
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = t.names[i]
	}
	return out
}

// maxPaths caps path enumeration; evaluation graphs are tiny, so hitting
// this means a malformed input.
const maxPaths = 4096

// Paths enumerates every ingress→egress path, each with its traffic weight
// w_Pk. The weight of a path is the product over its vertices of the branch
// fraction taken at each fan-out: δ_e / Σ_out δ (paper §3.6, "weight is
// calculated using traffic partition parameters"). Weights are normalized
// to sum to 1.
//
// The paths are enumerated once per topology and shared by every graph
// copy; Paths returns a deep copy the caller may modify.
func (g *Graph) Paths() ([]Path, error) {
	ps, err := g.topo.allPaths()
	if err != nil || len(ps) == 0 {
		return nil, err
	}
	out := make([]Path, len(ps))
	for i, p := range ps {
		out[i] = Path{Vertices: g.topo.namesOf(p.vertices), Weight: p.weight}
	}
	return out, nil
}

// allPaths returns the shared path cache, enumerating it on first use.
// Callers must not modify the result.
func (t *topology) allPaths() ([]pathHops, error) {
	t.pathsOnce.Do(t.enumeratePaths)
	return t.paths, t.pathsErr
}

// enumeratePaths walks every ingress→egress pair depth first, successors
// in edge insertion order, then weights, normalizes and orders the paths.
func (t *topology) enumeratePaths() {
	var all []pathHops
	var verts, edges []int
	for _, in := range t.ingress {
		for _, out := range t.egress {
			found := 0
			var dfs func(v int) error
			dfs = func(v int) error {
				verts = append(verts, v)
				defer func() { verts = verts[:len(verts)-1] }()
				if v == out {
					if found++; found > maxPaths {
						return fmt.Errorf("graph: more than %d paths from %q to %q", maxPaths, t.names[in], t.names[out])
					}
					w := 1.0
					for k, j := range edges {
						if total := t.deltaOut[verts[k]]; total > 0 {
							w *= t.edges[j].Delta / total
						}
					}
					all = append(all, pathHops{vertices: slices.Clone(verts), edges: slices.Clone(edges), weight: w})
					return nil
				}
				for _, j := range t.out[v] {
					edges = append(edges, j)
					err := dfs(t.to[j])
					edges = edges[:len(edges)-1]
					if err != nil {
						return err
					}
				}
				return nil
			}
			if err := dfs(in); err != nil {
				t.pathsErr = err
				return
			}
		}
	}
	total := 0.0
	for _, p := range all {
		total += p.weight
	}
	if total > 0 {
		for i := range all {
			all[i].weight /= total
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].weight > all[b].weight })
	t.paths = all
}

// Path is one ingress→egress route with its traffic weight.
type Path struct {
	Vertices []string
	Weight   float64
}

// WithVertex returns a copy of the graph with the named vertex replaced.
// It is the mutation primitive the optimizer uses to explore configurable
// parameters (D_vi, N_vi, γ_vi) without rebuilding graphs by hand.
//
// A replacement of the same kind cannot change the topology, so the copy
// shares it: WithVertex validates only the new vertex and copies the
// vertex slice, O(V). A kind change rebuilds the graph through NewGraph.
func (g *Graph) WithVertex(v Vertex) (*Graph, error) {
	i, ok := g.topo.index[v.Name]
	if !ok {
		return nil, fmt.Errorf("core: WithVertex: unknown vertex %q", v.Name)
	}
	vs := g.Vertices()
	vs[i] = v
	if v.Kind != g.vertices[i].Kind {
		return NewGraph(g.name, vs, g.topo.edges)
	}
	vs[i] = v.normalized()
	if err := vs[i].validate(); err != nil {
		return nil, err
	}
	return &Graph{name: g.name, vertices: vs, topo: g.topo}, nil
}

// WithEdge returns a copy of the graph with the matching edge replaced.
// An edge's δ sets path weights, so the copy is rebuilt through NewGraph
// rather than sharing the topology.
func (g *Graph) WithEdge(e Edge) (*Graph, error) {
	if _, ok := g.Edge(e.From, e.To); !ok {
		return nil, fmt.Errorf("core: WithEdge: unknown edge %s->%s", e.From, e.To)
	}
	es := g.Edges()
	for i := range es {
		if es[i].From == e.From && es[i].To == e.To {
			es[i] = e
		}
	}
	return NewGraph(g.name, g.vertices, es)
}
