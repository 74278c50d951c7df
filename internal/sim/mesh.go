package sim

// This file builds the multi-tenant microservice-mesh scenario: the
// large-graph golden scenario (TestMeshGoldenDigests) and the engine's
// large-graph benchmark (BenchmarkMesh64). A flow-hash load balancer fans
// whole flows out to per-tenant service chains joined by sparse
// tenant-to-tenant calls; at 64 tenants that is 385 vertices, an order of
// magnitude more than the catalog-derived golden graphs, so it exercises
// the event heap and the routing tables at a realistic deployment width.
//
// The scenario is RNG-free outside the traffic generator — deterministic
// service, flow-hash routing at every fan-out — and tie-free: every
// tenant's throughputs, overheads and link bandwidths carry a small
// index-dependent jitter, so no two unrelated events share a float64
// timestamp and its digests do not hinge on same-time tie-breaking.

import (
	"fmt"

	"lognic/internal/core"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// Mesh scenario parameters. Stage rates and overheads are jittered per
// tenant and per stage so every event timestamp in the run is unique.
const (
	meshStages    = 5      // service chain depth per tenant
	meshStageRate = 2e9    // base per-stage compute rate, bytes/second
	meshLinkBW    = 12.5e9 // base dedicated inter-stage link, bytes/second
	meshOverhead  = 8e-6   // base computation-transfer overhead, seconds
	meshQueueCap  = 64     // per-stage logical input queue
	meshFlowLen   = 8      // mean packets per flow (flow-hash granularity)
	meshCrossFrac = 0.1    // flow fraction a calling tenant sends across
)

// meshSizes is the request-size mix. Prime sizes matter: with deterministic
// service, a single fixed size makes busy-period completion times constant
// offsets from earlier arrivals, and two unrelated packets can then land on
// the same float64 timestamp. Distinct prime sizes give every packet its
// own service and transfer times, so timestamps collide only by 2^-52
// accident, not by structure.
var meshSizes = []unit.Size{941, 1021, 1103, 1187}

// meshJitter breaks throughput/overhead/bandwidth symmetry between tenants
// and stages. The offsets are small enough not to change the scenario's
// capacity story and large enough that equal-size packets on different
// tenants never collide on a timestamp.
func meshJitter(tenant, stage int) float64 {
	return 1 + 0.002*float64(tenant) + 0.0005*float64(stage)
}

// MeshConfig builds the tenants-way microservice-mesh scenario: one
// flow-hash load balancer, a meshStages-deep dedicated service chain per
// tenant, and a sparse tenant-to-tenant call edge from every eighth tenant
// to the tenant four slots later. load is the offered fraction of
// aggregate stage capacity (values above 1 saturate the mesh); duration is
// the simulated time.
func MeshConfig(tenants int, load float64, seed int64, duration float64) (Config, error) {
	if tenants < 1 {
		return Config{}, fmt.Errorf("sim: mesh needs at least one tenant, got %d", tenants)
	}
	if load <= 0 {
		return Config{}, fmt.Errorf("sim: mesh load must be positive, got %v", load)
	}
	b := core.NewBuilder(fmt.Sprintf("mesh-%dt", tenants)).
		AddVertex(core.Vertex{Name: "lb", Kind: core.KindIngress, Overhead: meshOverhead})
	policy := map[string]RoutePolicy{"lb": RouteFlowHash}
	share := 1 / float64(tenants)

	stage := func(t, s int) string { return fmt.Sprintf("t%02d.s%d", t, s) }
	egress := func(t int) string { return fmt.Sprintf("t%02d.out", t) }
	// calls reports whether tenant t makes a cross-tenant call (and so
	// splits its chain after stage 1), and callee is its target.
	calls := func(t int) bool { return t%8 == 0 && t+4 < tenants }
	callee := func(t int) int { return t + 4 }

	for t := 0; t < tenants; t++ {
		for s := 0; s < meshStages; s++ {
			b.AddVertex(core.Vertex{
				Name:          stage(t, s),
				Kind:          core.KindIP,
				Throughput:    meshStageRate * meshJitter(t, s),
				Parallelism:   2,
				QueueCapacity: meshQueueCap,
				Overhead:      meshOverhead * meshJitter(t, s),
			})
		}
		b.AddVertex(core.Vertex{Name: egress(t), Kind: core.KindEgress})
		b.AddEdge(core.Edge{From: "lb", To: stage(t, 0), Delta: share,
			Bandwidth: meshLinkBW * meshJitter(t, 0)})

		// The chain. A calling tenant diverts meshCrossFrac of its flows
		// at stage 1; a called tenant's stage 2 receives its caller's
		// diverted flows, so edges downstream of the merge carry them too.
		isCallee := t >= 4 && calls(t-4)
		for s := 0; s < meshStages; s++ {
			d := share
			if calls(t) && s >= 1 {
				d -= share * meshCrossFrac // diverted at stage 1
			}
			if isCallee && s >= 2 {
				d += share * meshCrossFrac // caller's flows merged at stage 2
			}
			to := egress(t)
			if s+1 < meshStages {
				to = stage(t, s+1)
			}
			b.AddEdge(core.Edge{From: stage(t, s), To: to, Delta: d,
				Bandwidth: meshLinkBW * meshJitter(t, s+1)})
		}

		if calls(t) {
			b.AddEdge(core.Edge{
				From: stage(t, 1), To: stage(callee(t), 2),
				Delta:     share * meshCrossFrac,
				Bandwidth: meshLinkBW * meshJitter(t, meshStages+1),
			})
			policy[stage(t, 1)] = RouteFlowHash
		}
	}
	g, err := b.Build()
	if err != nil {
		return Config{}, err
	}
	prof, err := traffic.EqualSplit("mesh-rpc",
		unit.Bandwidth(load*float64(tenants)*meshStageRate), meshSizes...)
	if err != nil {
		return Config{}, err
	}
	prof.MeanFlowPackets = meshFlowLen
	return Config{
		Graph:                g,
		Hardware:             core.Hardware{}, // dedicated links only
		Profile:              prof,
		Seed:                 seed,
		Duration:             duration,
		DeterministicService: true,
		RoutePolicy:          policy,
	}, nil
}
