package sim_test

// Golden-digest regression suite for the event engine (ISSUE 4 satellite).
// Each scenario below runs the simulator on a graph parameterized by a
// real device catalog (LiquidIO-II CN2360 and BlueField-2) and digests the
// full Result plus the complete packet trace stream. The digests committed
// in testdata/golden_digests.json were recorded from the seed
// container/heap engine; the specialized 4-ary key/slab heap engine must
// reproduce every one bit-for-bit at every seed — the byte-identical
// contract of docs/SIM.md. Refresh intentionally changed goldens with:
//
//	go test ./internal/sim -run TestGoldenDigests -update
//
// The scenarios deliberately cover every scheduling path: shared and
// per-edge WRR queues, all three routing policies, bursty and
// deterministic arrivals, flow grouping, dedicated links, overheads,
// retries, and the full fault-injection event set.

import (
	"testing"

	"lognic/internal/core"
	"lognic/internal/devices"
	"lognic/internal/sim"
	"lognic/internal/simtest"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// goldenDevice carries the catalog-derived parameters the scenario graphs
// are built from.
type goldenDevice struct {
	name      string
	hw        core.Hardware
	lineRate  float64 // wire rate, bytes/second
	frontRate float64 // front (core-complex) vertex compute rate, B/s
	accelRate float64 // accelerator vertex compute rate, B/s
	engines   int     // front vertex parallelism
}

const goldenPkt = 1500.0

func goldenDevices(t testing.TB) []goldenDevice {
	t.Helper()
	lio := devices.LiquidIO2CN2360()
	md5, err := lio.Accel("md5")
	if err != nil {
		t.Fatal(err)
	}
	bf := devices.BlueField2DPU()
	crypto, err := bf.Engine("crypto")
	if err != nil {
		t.Fatal(err)
	}
	return []goldenDevice{
		{
			name:      "liquidio2",
			hw:        lio.Hardware(),
			lineRate:  lio.LineRate.BytesPerSecond(),
			frontRate: lio.CoreThroughput(md5, goldenPkt, lio.Cores),
			accelRate: md5.PacketRate * goldenPkt,
			engines:   lio.Cores,
		},
		{
			name:      "bluefield2",
			hw:        bf.Hardware(),
			lineRate:  bf.LineRate.BytesPerSecond(),
			frontRate: float64(bf.Cores) * goldenPkt / 0.8e-6,
			accelRate: 4 * goldenPkt / crypto.ServiceTime(goldenPkt),
			engines:   bf.Cores,
		},
	}
}

// fanoutGraph is in → front → {a, b} → sink → out: a probabilistic split
// (δ 0.6/0.4) over shared-interface and memory media, a dedicated
// characterized link on b→sink, a computation-transfer overhead at front,
// and a two-input merge at sink (the WRR scenario's scheduler input).
func fanoutGraph(t testing.TB, d goldenDevice) *core.Graph {
	t.Helper()
	g, err := core.NewBuilder("golden-fanout-" + d.name).
		AddIngress("in").
		AddVertex(core.Vertex{
			Name: "front", Kind: core.KindIP, Throughput: d.frontRate,
			Parallelism: d.engines, QueueCapacity: 64, Overhead: 1e-6,
		}).
		AddVertex(core.Vertex{
			Name: "a", Kind: core.KindIP, Throughput: 0.7 * d.accelRate,
			Parallelism: 4, QueueCapacity: 32,
		}).
		AddVertex(core.Vertex{
			Name: "b", Kind: core.KindIP, Throughput: 0.5 * d.accelRate,
			Parallelism: 2, QueueCapacity: 32,
		}).
		AddVertex(core.Vertex{
			Name: "sink", Kind: core.KindIP, Throughput: 2 * d.frontRate,
			Parallelism: 2, QueueCapacity: 32,
		}).
		AddEgress("out").
		AddEdge(core.Edge{From: "in", To: "front", Delta: 1, Alpha: 1}).
		AddEdge(core.Edge{From: "front", To: "a", Delta: 0.6, Alpha: 0.3}).
		AddEdge(core.Edge{From: "front", To: "b", Delta: 0.4, Beta: 0.4, Bandwidth: 0.25 * d.lineRate}).
		AddEdge(core.Edge{From: "a", To: "sink", Delta: 0.6, Beta: 0.2}).
		AddEdge(core.Edge{From: "b", To: "sink", Delta: 0.4}).
		AddEdge(core.Edge{From: "sink", To: "out", Delta: 1, Alpha: 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chainGraph is in → ip → out with a finite queue, the fault/retry and
// deterministic scenarios' shape.
func chainGraph(t testing.TB, d goldenDevice, engines, queueCap int) *core.Graph {
	t.Helper()
	g, err := core.NewBuilder("golden-chain-"+d.name).
		AddIngress("in").
		AddIP("ip", d.accelRate, engines, queueCap).
		AddEgress("out").
		Connect("in", "ip", 1).
		Connect("ip", "out", 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenDuration sizes the run so roughly targetBytes of traffic are
// offered regardless of the device's wire speed, keeping per-scenario
// event counts comparable across catalogs.
func goldenDuration(offeredBW float64) float64 {
	const targetBytes = 6e6
	return targetBytes / offeredBW
}

// goldenScenarios returns the named configs for one device at one seed.
func goldenScenarios(t testing.TB, d goldenDevice, seed int64) map[string]sim.Config {
	t.Helper()
	offered := 0.6 * d.lineRate
	dur := goldenDuration(offered)
	mixed, err := traffic.EqualSplit("mixed", unit.Bandwidth(0.5*d.lineRate),
		unit.Size(512), unit.Size(1500), unit.Size(4096))
	if err != nil {
		t.Fatal(err)
	}
	chainOffered := 0.8 * d.accelRate
	chainDur := goldenDuration(chainOffered)
	return map[string]sim.Config{
		"delta": {
			Graph:    fanoutGraph(t, d),
			Hardware: d.hw,
			Profile:  traffic.Fixed("fixed", unit.Bandwidth(offered), goldenPkt),
			Seed:     seed,
			Duration: dur,
		},
		"wrr": {
			Graph:         fanoutGraph(t, d),
			Hardware:      d.hw,
			Profile:       mixed,
			Seed:          seed,
			Duration:      goldenDuration(0.5 * d.lineRate),
			PerEdgeQueues: true,
			WRRWeights:    map[string]map[string]int{"sink": {"a": 2, "b": 1}},
		},
		"jsq": {
			Graph:       fanoutGraph(t, d),
			Hardware:    d.hw,
			Profile:     traffic.Fixed("fixed", unit.Bandwidth(offered), goldenPkt),
			Seed:        seed,
			Duration:    dur,
			RoutePolicy: map[string]sim.RoutePolicy{"front": sim.RouteJSQ},
		},
		"flowhash-bursty": {
			Graph:    fanoutGraph(t, d),
			Hardware: d.hw,
			Profile: traffic.Profile{
				Name: "bursty", Rate: unit.Bandwidth(offered),
				Sizes:           traffic.Fixed("fixed", unit.Bandwidth(offered), goldenPkt).Sizes,
				BurstDegree:     4,
				MeanFlowPackets: 8,
			},
			Seed:        seed,
			Duration:    dur,
			RoutePolicy: map[string]sim.RoutePolicy{"front": sim.RouteFlowHash},
		},
		"faults-retry": {
			Graph:    chainGraph(t, d, 4, 8),
			Hardware: d.hw,
			Profile:  traffic.Fixed("fixed", unit.Bandwidth(chainOffered), goldenPkt),
			Seed:     seed,
			Duration: chainDur,
			Faults: sim.FaultSchedule{
				{Kind: sim.EngineDown, Time: 0.25 * chainDur, Vertex: "ip", Count: 3},
				{Kind: sim.EngineUp, Time: 0.55 * chainDur, Vertex: "ip", Count: 3},
				{Kind: sim.LinkDegrade, Time: 0.3 * chainDur, Link: "interface", Factor: 0.5, Duration: 0.2 * chainDur},
				{Kind: sim.VertexStall, Time: 0.8 * chainDur, Vertex: "ip", Duration: 0.05 * chainDur},
			},
			Retry: map[string]sim.RetryPolicy{"ip": {MaxRetries: 3, Backoff: 2e-6}},
		},
		"deterministic": {
			Graph:    chainGraph(t, d, 4, 32),
			Hardware: d.hw,
			Profile: traffic.Profile{
				Name: "cbr", Rate: unit.Bandwidth(0.7 * d.accelRate),
				Sizes:   traffic.Fixed("cbr", unit.Bandwidth(0.7*d.accelRate), goldenPkt).Sizes,
				Arrival: traffic.ArrivalDeterministic,
			},
			Seed:                 seed,
			Duration:             goldenDuration(0.7 * d.accelRate),
			DeterministicService: true,
		},
	}
}

// TestGoldenDigests pins the engine's exact behavior: full Result and
// trace-stream digests for every (device, scenario, seed) against the
// committed goldens recorded from the seed engine.
func TestGoldenDigests(t *testing.T) {
	g := simtest.LoadGolden(t, "testdata/golden_digests.json")
	defer g.Save(t)
	for _, d := range goldenDevices(t) {
		for _, seed := range []int64{1, 2, 3} {
			for name, cfg := range goldenScenarios(t, d, seed) {
				th := simtest.NewTraceHasher()
				cfg.Trace = th.Hook
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s/seed%d: %v", d.name, name, seed, err)
				}
				if res.DeliveredPackets == 0 {
					t.Fatalf("%s/%s/seed%d: delivered no packets — scenario carries no signal", d.name, name, seed)
				}
				if th.Events() == 0 {
					t.Fatalf("%s/%s/seed%d: empty trace stream", d.name, name, seed)
				}
				g.Check(t, simtest.Key(d.name, name, "seed", seed, "result"), simtest.ResultDigest(res))
				g.Check(t, simtest.Key(d.name, name, "seed", seed, "trace"), th.Sum())
			}
		}
	}
}

// TestMeshGoldenDigests pins the 64-tenant microservice mesh (mesh.go),
// the large-graph scenario: its Result and full trace-stream digests at
// two seeds.
func TestMeshGoldenDigests(t *testing.T) {
	g := simtest.LoadGolden(t, "testdata/mesh_digests.json")
	defer g.Save(t)
	for _, seed := range []int64{1, 2} {
		cfg, err := sim.MeshConfig(64, 0.7, seed, 2e-4)
		if err != nil {
			t.Fatal(err)
		}
		th := simtest.NewTraceHasher()
		cfg.Trace = th.Hook
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("seed%d: %v", seed, err)
		}
		if res.DeliveredPackets == 0 {
			t.Fatalf("seed%d: mesh delivered no packets", seed)
		}
		g.Check(t, simtest.Key("mesh64", "seed", seed, "result"), simtest.ResultDigest(res))
		g.Check(t, simtest.Key("mesh64", "seed", seed, "trace"), th.Sum())
	}
}

// TestGoldenRunIsRerunnable guards the digest harness itself: two runs of
// the same config must digest identically (the simulator is deterministic
// for equal seeds), otherwise golden mismatches would be noise.
func TestGoldenRunIsRerunnable(t *testing.T) {
	d := goldenDevices(t)[0]
	cfg := goldenScenarios(t, d, 1)["delta"]
	r1, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if simtest.ResultDigest(r1) != simtest.ResultDigest(r2) {
		t.Fatal("equal seeds digested differently — harness or simulator is nondeterministic")
	}
}
