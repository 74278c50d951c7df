package optimizer

// Integer knob search: the discrete face of the §3.8 optimizer, shared by
// the `lognic -optimize` CLI and the lognic-serve daemon's /v1/optimize
// endpoint. A knob names one integer-valued CONF parameter of a vertex —
// its parallelism degree D_vi or queue capacity N_vi — with an inclusive
// range; SolveKnobs searches the cross product for the best configuration
// under a Goal via internal/numopt's exhaustive or coordinate-descent
// integer search.

import (
	"errors"
	"fmt"
	"math"

	"lognic/internal/core"
	"lognic/internal/numopt"
)

// Knob parameter names.
const (
	// KnobParallelism turns a vertex's parallelism degree D_vi.
	KnobParallelism = "parallelism"
	// KnobQueue turns a vertex's queue capacity N_vi.
	KnobQueue = "queue"
)

// IntKnob is one integer parameter under search.
type IntKnob struct {
	// Vertex names the target vertex.
	Vertex string
	// Param is KnobParallelism or KnobQueue.
	Param string
	// Lo and Hi bound the search (inclusive); Lo must be >= 1.
	Lo, Hi int
}

// Validate checks the knob against a graph.
func (k IntKnob) Validate(g *core.Graph) error {
	if k.Param != KnobParallelism && k.Param != KnobQueue {
		return fmt.Errorf("optimizer: unknown knob parameter %q (%s|%s)", k.Param, KnobParallelism, KnobQueue)
	}
	if k.Lo < 1 || k.Hi < k.Lo {
		return fmt.Errorf("optimizer: bad knob range %d..%d for %s.%s", k.Lo, k.Hi, k.Vertex, k.Param)
	}
	if _, ok := g.Vertex(k.Vertex); !ok {
		return fmt.Errorf("optimizer: knob references unknown vertex %q", k.Vertex)
	}
	return nil
}

// Name renders the knob's "vertex.param" label.
func (k IntKnob) Name() string { return k.Vertex + "." + k.Param }

// ErrNoFeasible reports that no searched configuration evaluated to a
// finite objective — every knob setting failed to build or to score.
var ErrNoFeasible = errors.New("optimizer: no feasible configuration found")

// KnobSolution is the best integer configuration found.
type KnobSolution struct {
	// Values holds the chosen knob settings, in knob order.
	Values []int
	// Objective is the goal metric at the chosen point, sign-corrected to
	// the natural reading (latency seconds, or bytes/second for
	// maximization goals).
	Objective float64
	// Evaluated counts model evaluations spent.
	Evaluated int
	// Exhaustive reports whether the search covered the whole space.
	Exhaustive bool
}

// ApplyKnobs returns a copy of the model with the knob values set. Each
// knob goes through WithVertex, which for a knob (a vertex keeping its
// kind) is an O(V) copy sharing the graph's topology — no knob rebuilds
// or revalidates the graph.
func ApplyKnobs(m core.Model, knobs []IntKnob, values []int) (core.Model, error) {
	if len(values) != len(knobs) {
		return core.Model{}, fmt.Errorf("optimizer: %d values for %d knobs", len(values), len(knobs))
	}
	g := m.Graph
	for i, k := range knobs {
		v, ok := g.Vertex(k.Vertex)
		if !ok {
			return core.Model{}, fmt.Errorf("optimizer: knob references unknown vertex %q", k.Vertex)
		}
		switch k.Param {
		case KnobParallelism:
			v.Parallelism = values[i]
		case KnobQueue:
			v.QueueCapacity = values[i]
		default:
			return core.Model{}, fmt.Errorf("optimizer: unknown knob parameter %q", k.Param)
		}
		var err error
		g, err = g.WithVertex(v)
		if err != nil {
			return core.Model{}, err
		}
	}
	out := m
	out.Graph = g
	return out, nil
}

// SolveKnobs searches the knob space for the configuration that best meets
// the goal (Figure 4-a's "apply for optimization" output). maxEvals bounds
// the number of model evaluations (<= 0 selects the numopt default);
// spaces that fit the budget are searched exhaustively, larger ones by
// coordinate descent. It returns ErrNoFeasible when every searched
// configuration is infeasible.
func SolveKnobs(m core.Model, goal Goal, knobs []IntKnob, maxEvals int) (KnobSolution, error) {
	if len(knobs) == 0 {
		return KnobSolution{}, errors.New("optimizer: no knobs to search")
	}
	ranges := make([]numopt.IntRange, 0, len(knobs))
	for _, k := range knobs {
		if err := k.Validate(m.Graph); err != nil {
			return KnobSolution{}, err
		}
		ranges = append(ranges, numopt.IntRange{Lo: k.Lo, Hi: k.Hi})
	}
	eval := func(values []int) float64 {
		mm, err := ApplyKnobs(m, knobs, values)
		if err != nil {
			return math.Inf(1)
		}
		v, err := Score(mm, goal)
		if err != nil {
			return math.Inf(1)
		}
		return v
	}
	res, err := numopt.IntSearch(eval, ranges, maxEvals)
	if err != nil {
		return KnobSolution{}, err
	}
	if res.X == nil || math.IsInf(res.F, 1) {
		return KnobSolution{}, ErrNoFeasible
	}
	objective := res.F
	if goal != MinimizeLatency {
		objective = -objective
	}
	return KnobSolution{
		Values:     res.X,
		Objective:  objective,
		Evaluated:  res.Evaluated,
		Exhaustive: res.Exhaustive,
	}, nil
}
