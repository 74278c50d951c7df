package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lognic/internal/core"
	"lognic/internal/optimizer"
	"lognic/internal/serve"
	"lognic/internal/unit"
)

// Knob is one integer parameter the CLI optimizer may turn: a vertex's
// parallelism degree (D_vi) or queue capacity (N_vi), swept over an
// inclusive range. It is the CLI-argument face of optimizer.IntKnob.
type Knob = optimizer.IntKnob

// ParseKnob parses "vertex.param=lo..hi", e.g. "ip.parallelism=1..16" or
// "ssd.queue=8..256".
func ParseKnob(arg string) (Knob, error) {
	eq := strings.SplitN(arg, "=", 2)
	if len(eq) != 2 {
		return Knob{}, fmt.Errorf("cli: bad knob %q, want vertex.param=lo..hi", arg)
	}
	target := strings.SplitN(eq[0], ".", 2)
	if len(target) != 2 || target[0] == "" {
		return Knob{}, fmt.Errorf("cli: bad knob target %q, want vertex.param", eq[0])
	}
	param := target[1]
	if param != optimizer.KnobParallelism && param != optimizer.KnobQueue {
		return Knob{}, fmt.Errorf("cli: unknown knob parameter %q (parallelism|queue)", param)
	}
	bounds := strings.SplitN(eq[1], "..", 2)
	if len(bounds) != 2 {
		return Knob{}, fmt.Errorf("cli: bad knob range %q, want lo..hi", eq[1])
	}
	lo, err := strconv.Atoi(bounds[0])
	if err != nil {
		return Knob{}, fmt.Errorf("cli: bad knob lower bound %q", bounds[0])
	}
	hi, err := strconv.Atoi(bounds[1])
	if err != nil {
		return Knob{}, fmt.Errorf("cli: bad knob upper bound %q", bounds[1])
	}
	if lo < 1 || hi < lo {
		return Knob{}, fmt.Errorf("cli: bad knob range %d..%d", lo, hi)
	}
	return Knob{Vertex: target[0], Param: param, Lo: lo, Hi: hi}, nil
}

// ParseGoal maps a CLI goal name.
func ParseGoal(s string) (optimizer.Goal, error) { return optimizer.GoalFromName(s) }

// RunOptimize searches the knob space for the best configuration under the
// goal and renders the result; its JSON is the /v1/optimize response body
// for the same search. It is the CLI face of the model's optimizer mode
// (Figure 4-a's "apply for optimization" output).
func RunOptimize(w io.Writer, m core.Model, goalName string, knobArgs []string, jsonOut bool) error {
	if len(knobArgs) == 0 {
		return fmt.Errorf("cli: -optimize needs at least one -knob")
	}
	goal, err := ParseGoal(goalName)
	if err != nil {
		return err
	}
	knobs := make([]Knob, 0, len(knobArgs))
	for _, arg := range knobArgs {
		k, err := ParseKnob(arg)
		if err != nil {
			return err
		}
		knobs = append(knobs, k)
	}
	// 0 selects the default budget, as a /v1/optimize request without
	// max_evals does.
	out, err := serve.Optimize(m, goal, knobs, 0)
	if errors.Is(err, optimizer.ErrNoFeasible) {
		return fmt.Errorf("cli: no feasible knob setting found")
	}
	if err != nil {
		return err
	}
	if jsonOut {
		return json.NewEncoder(w).Encode(out)
	}
	fmt.Fprintf(w, "goal:      %s\n", out.Goal)
	for _, k := range knobs {
		fmt.Fprintf(w, "knob:      %s.%s = %d  (searched %d..%d)\n",
			k.Vertex, k.Param, out.Knobs[k.Name()], k.Lo, k.Hi)
	}
	switch goal {
	case optimizer.MinimizeLatency:
		fmt.Fprintf(w, "objective: %s\n", unit.Duration(out.Objective))
	default:
		fmt.Fprintf(w, "objective: %s\n", unit.Bandwidth(out.Objective))
	}
	fmt.Fprintf(w, "evaluated: %d configurations (exhaustive: %v)\n", out.Evaluated, out.Exhaustive)
	return nil
}
