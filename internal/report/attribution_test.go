package report

import (
	"strings"
	"testing"

	"lognic/internal/apps"
	"lognic/internal/core"
	"lognic/internal/devices"
	"lognic/internal/obs"
	"lognic/internal/sim"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// runAttribution drives one simulator replication of the model at the
// given fraction of its saturation throughput and builds the cross-checked
// report.
func runAttribution(t *testing.T, m core.Model, loadFrac float64, seed int64) obs.Report {
	t.Helper()
	sat, err := m.SaturationThroughput()
	if err != nil {
		t.Fatal(err)
	}
	offered := loadFrac * sat.Attainable
	res, err := sim.Run(sim.Config{
		Graph:    m.Graph,
		Hardware: m.Hardware,
		Profile:  traffic.Fixed("attr", unit.Bandwidth(offered), unit.Size(m.Traffic.Granularity)),
		Seed:     seed,
		Duration: 0.08,
		Warmup:   0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Attribution(m, res)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Acceptance: on the LiquidIO-2 catalog (inline MD5 with a small core
// group) the simulator's measured attribution must name the same
// bottleneck the analytical model derives — the NIC-core group.
func TestAttributionAgreesLiquidIO2(t *testing.T) {
	m, err := apps.InlineAccel(apps.InlineAccelConfig{
		Device: devices.LiquidIO2CN2360(), Accel: "md5", Cores: 2, PacketBytes: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := runAttribution(t, m, 0.85, 101)
	top, ok := obs.Bottleneck(r.Model)
	if !ok {
		t.Fatal("model ranking empty")
	}
	if top.Name != "nic-cores" || top.Kind != obs.KindCompute {
		t.Fatalf("model bottleneck = %s (%s), want nic-cores (compute)", top.Name, top.Kind)
	}
	if !r.Agree {
		simTop, _ := obs.Bottleneck(r.Sim)
		t.Fatalf("simulator attribution disagrees: sim names %s (%s)\n%s", simTop.Name, simTop.Kind, r.Format())
	}
}

// Acceptance: on the BlueField-2 catalog (ARM-only middlebox chain, where
// DPI's per-byte cost dominates the γ-partitioned core pool) model and
// simulator must again agree on the bottleneck.
func TestAttributionAgreesBlueField2(t *testing.T) {
	chain := apps.MiddleboxChain()
	m, err := apps.NFChainModel(devices.BlueField2DPU(), chain, apps.ARMOnly(chain), 1500, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	r := runAttribution(t, m, 0.85, 202)
	top, ok := obs.Bottleneck(r.Model)
	if !ok {
		t.Fatal("model ranking empty")
	}
	if top.Kind != obs.KindCompute || !strings.HasPrefix(top.Name, "arm-") {
		t.Fatalf("model bottleneck = %s (%s), want an arm-* compute vertex", top.Name, top.Kind)
	}
	if !r.Agree {
		simTop, _ := obs.Bottleneck(r.Sim)
		t.Fatalf("simulator attribution disagrees: sim names %s (%s)\n%s", simTop.Name, simTop.Kind, r.Format())
	}
}

func TestModelComponentsSkipIngress(t *testing.T) {
	rep := core.ThroughputReport{Constraints: []core.Constraint{
		{Kind: core.ConstraintIngress, Limit: 1e9},
		{Kind: core.ConstraintIPCompute, Name: "ip1", Limit: 2e9},
		{Kind: core.ConstraintInterface, Limit: 4e9},
	}}
	comps := ModelComponents(rep, 1e9)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2 (ingress skipped)", len(comps))
	}
	for _, c := range comps {
		if c.Kind == "" || c.SaturationLoad <= 0 {
			t.Fatalf("bad component %+v", c)
		}
	}
	if comps[0].Utilization != 0.5 {
		t.Fatalf("ip1 utilization = %v, want 0.5", comps[0].Utilization)
	}
}
