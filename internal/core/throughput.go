package core

import (
	"fmt"
	"math"
	"sort"
)

// ConstraintKind identifies which hardware entity a throughput constraint
// comes from.
type ConstraintKind int

// Constraint kinds, in the order Equation 4 lists its min() terms.
const (
	// ConstraintIngress is the offered load itself: attained throughput
	// can never exceed BW_in.
	ConstraintIngress ConstraintKind = iota
	// ConstraintIPCompute is an IP's computing capacity: P_vi / Σδ_in.
	ConstraintIPCompute
	// ConstraintEdge is a characterized IP-IP link: BW_eij / δ_eij.
	ConstraintEdge
	// ConstraintInterface is the shared SoC interface: BW_INTF / Σα.
	ConstraintInterface
	// ConstraintMemory is the shared memory subsystem: BW_MEM / Σβ.
	ConstraintMemory
)

// String names the constraint kind.
func (k ConstraintKind) String() string {
	switch k {
	case ConstraintIngress:
		return "ingress"
	case ConstraintIPCompute:
		return "ip-compute"
	case ConstraintEdge:
		return "edge-bandwidth"
	case ConstraintInterface:
		return "interface"
	case ConstraintMemory:
		return "memory"
	default:
		return fmt.Sprintf("constraint(%d)", int(k))
	}
}

// Constraint is one term of Equation 4's min(): the ingress-throughput
// ceiling imposed by a single hardware entity.
type Constraint struct {
	Kind ConstraintKind
	// Name identifies the entity: a vertex name, "from->to" for edges, or
	// "" for device-wide ceilings.
	Name string
	// Limit is the maximum ingress bandwidth (bytes/second) this entity
	// admits.
	Limit float64
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Name == "" {
		return fmt.Sprintf("%s limit %.4g B/s", c.Kind, c.Limit)
	}
	return fmt.Sprintf("%s(%s) limit %.4g B/s", c.Kind, c.Name, c.Limit)
}

// ThroughputReport is the result of throughput modeling: the attainable
// throughput and the full set of constraints, sorted tightest first, so
// callers can read off the bottleneck and how much headroom the next
// constraint leaves.
type ThroughputReport struct {
	// Attainable is P_attainable in bytes/second of ingress traffic
	// (Equation 4, additionally capped by the offered load BW_in).
	Attainable float64
	// Bottleneck is the tightest constraint.
	Bottleneck Constraint
	// Constraints lists every finite constraint, tightest first.
	Constraints []Constraint
}

// Model binds an execution graph to hardware parameters and a traffic
// profile — the full input set of Figure 4(a).
type Model struct {
	Hardware Hardware
	Graph    *Graph
	Traffic  Traffic
}

// Validate checks all three components.
func (m Model) Validate() error {
	if m.Graph == nil {
		return fmt.Errorf("core: model has no graph")
	}
	if err := m.Hardware.validate(); err != nil {
		return err
	}
	return m.Traffic.validate()
}

// Throughput evaluates Equations 1–4: for each triggered IP the compute
// ceiling P_vi/Σδ, for each characterized edge BW_eij/δ_eij, and the shared
// interface and memory ceilings BW_INTF/Σα and BW_MEM/Σβ. The attainable
// throughput is the minimum, further capped by the offered ingress rate.
func (m Model) Throughput() (ThroughputReport, error) {
	if err := m.Validate(); err != nil {
		return ThroughputReport{}, err
	}
	cs := m.capacityConstraints()
	cs = append(cs, Constraint{Kind: ConstraintIngress, Limit: m.Traffic.IngressBW})
	return reportFromConstraints(cs), nil
}

// capacityConstraints builds every load-independent term of Equation 4.
func (m Model) capacityConstraints() []Constraint {
	g := m.Graph
	t := g.topo
	// Room for every term plus the ingress cap Throughput appends.
	cs := make([]Constraint, 0, len(t.edges)+len(g.vertices)+3)
	var sumAlpha, sumBeta float64
	for _, e := range t.edges {
		sumAlpha += e.Alpha
		sumBeta += e.Beta
		if e.Bandwidth > 0 && e.Delta > 0 {
			cs = append(cs, Constraint{
				Kind:  ConstraintEdge,
				Name:  e.From + "->" + e.To,
				Limit: e.Bandwidth / e.Delta,
			})
		}
	}
	for i, v := range g.vertices {
		p := v.effectiveThroughput()
		if p <= 0 {
			continue // pure forwarding vertex: no compute ceiling
		}
		deltaIn := t.deltaIn[i]
		if deltaIn <= 0 {
			continue // nothing routed through it
		}
		cs = append(cs, Constraint{
			Kind:  ConstraintIPCompute,
			Name:  v.Name,
			Limit: p / deltaIn,
		})
	}
	if m.Hardware.InterfaceBW > 0 && sumAlpha > 0 {
		cs = append(cs, Constraint{
			Kind:  ConstraintInterface,
			Limit: m.Hardware.InterfaceBW / sumAlpha,
		})
	}
	if m.Hardware.MemoryBW > 0 && sumBeta > 0 {
		cs = append(cs, Constraint{
			Kind:  ConstraintMemory,
			Limit: m.Hardware.MemoryBW / sumBeta,
		})
	}
	return cs
}

func reportFromConstraints(cs []Constraint) ThroughputReport {
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Limit < cs[j].Limit })
	if len(cs) == 0 {
		return ThroughputReport{Attainable: math.Inf(1)}
	}
	return ThroughputReport{Attainable: cs[0].Limit, Bottleneck: cs[0], Constraints: cs}
}

// SaturationThroughput reports the graph's capacity independent of the
// offered load: Equation 4's min() without the BW_in cap. It answers "how
// fast could this program go if we kept raising the input rate".
func (m Model) SaturationThroughput() (ThroughputReport, error) {
	if err := m.Validate(); err != nil {
		return ThroughputReport{}, err
	}
	return reportFromConstraints(m.capacityConstraints()), nil
}
