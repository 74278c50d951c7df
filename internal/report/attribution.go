package report

// Bottleneck attribution: this file bridges the analytical model's
// Equation 4 constraint ranking and the simulator's measured utilizations
// into one obs.Report, so a regenerated report can state — and a test can
// assert — that both sources blame the same component first.

import (
	"lognic/internal/core"
	"lognic/internal/obs"
	"lognic/internal/sim"
)

// ModelComponents converts a throughput report's constraints into
// attribution components. The ingress constraint is skipped — the offered
// load caps throughput but is not a hardware component that saturates.
// Utilization is the model's prediction at the given offered load:
// offered over the constraint's limit, capped at 1.
func ModelComponents(rep core.ThroughputReport, offered float64) []obs.Component {
	var out []obs.Component
	for _, c := range rep.Constraints {
		if c.Kind == core.ConstraintIngress || c.Limit <= 0 {
			continue
		}
		var kind, name string
		switch c.Kind {
		case core.ConstraintIPCompute:
			kind, name = obs.KindCompute, c.Name
		case core.ConstraintInterface:
			kind, name = obs.KindInterface, "interface"
		case core.ConstraintMemory:
			kind, name = obs.KindMemory, "memory"
		case core.ConstraintEdge:
			kind, name = obs.KindEdge, c.Name
		default:
			continue
		}
		u := offered / c.Limit
		if u > 1 {
			u = 1
		}
		out = append(out, obs.Component{
			Name: name, Kind: kind, Utilization: u, SaturationLoad: c.Limit,
		})
	}
	return out
}

// Attribution cross-checks bottleneck attribution for one model and one
// simulator run of it: the model side ranks Equation 4's saturation
// constraints (independent of offered load), the simulator side
// extrapolates measured utilizations to their saturation loads. Both are
// keyed by (kind, name), so agreement means both sources blame the same
// hardware component first.
func Attribution(m core.Model, res sim.Result) (obs.Report, error) {
	rep, err := m.SaturationThroughput()
	if err != nil {
		return obs.Report{}, err
	}
	offered := res.OfferedRate()
	return obs.BuildReport(offered, ModelComponents(rep, offered), res.AttributionComponents()), nil
}
