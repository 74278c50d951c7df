package sim

import (
	"math"
	"math/rand"
	"testing"

	"lognic/internal/core"
	"lognic/internal/queueing"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// pipeline builds in -> ip -> out with the given IP throughput (B/s),
// parallelism and queue capacity.
func pipeline(t *testing.T, p float64, par, qcap int) *core.Graph {
	t.Helper()
	g, err := core.NewBuilder("pipe").
		AddIngress("in").
		AddIP("ip", p, par, qcap).
		AddEgress("out").
		Connect("in", "ip", 1).
		Connect("ip", "out", 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := pipeline(t, 1e9, 1, 0)
	prof := traffic.Fixed("t", unit.Gbps(1), 1024)
	cases := []Config{
		{Graph: nil, Profile: prof, Duration: 1},
		{Graph: g, Profile: traffic.Profile{}, Duration: 1},
		{Graph: g, Profile: prof, Duration: 0},
		{Graph: g, Profile: prof, Duration: math.NaN()},
		{Graph: g, Profile: prof, Duration: 1, Warmup: 2},
		{Graph: g, Profile: prof, Duration: 1, Warmup: -1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestShardsValidation keeps the deprecated Config.Shards field validated:
// it has no effect, but a negative value is still a configuration error.
func TestShardsValidation(t *testing.T) {
	cfg, err := MeshConfig(64, 0.7, 1, 2e-4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative Shards accepted")
	}
}

func TestLowLoadDelivery(t *testing.T) {
	// 10% load, big queue: everything offered should be delivered and
	// throughput should track the offered rate.
	g := pipeline(t, 1e9, 1, 64)
	res, err := Run(Config{
		Graph:    g,
		Profile:  traffic.Fixed("t", unit.Bandwidth(1e8), 1000),
		Seed:     1,
		Duration: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
	if res.DropRate != 0 {
		t.Fatalf("DropRate = %v at 10%% load", res.DropRate)
	}
	if !approx(res.Throughput, 1e8, 0.05) {
		t.Fatalf("Throughput = %v, want ~1e8", res.Throughput)
	}
	// Mean latency at 10% load ≈ service time 1µs + small queueing.
	if res.MeanLatency < 0.9e-6 || res.MeanLatency > 3e-6 {
		t.Fatalf("MeanLatency = %v", res.MeanLatency)
	}
	ip := res.Vertices["ip"]
	if !approx(ip.Utilization, 0.1, 0.2) {
		t.Fatalf("Utilization = %v, want ~0.1", ip.Utilization)
	}
}

func TestOverloadSaturatesAndDrops(t *testing.T) {
	// Offered 3× capacity with a finite queue: throughput pins at the IP
	// rate and drops appear.
	g := pipeline(t, 1e9, 1, 16)
	res, err := Run(Config{
		Graph:    g,
		Profile:  traffic.Fixed("t", unit.Bandwidth(3e9), 1000),
		Seed:     2,
		Duration: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Throughput, 1e9, 0.05) {
		t.Fatalf("Throughput = %v, want ~1e9", res.Throughput)
	}
	if res.DropRate < 0.5 {
		t.Fatalf("DropRate = %v, want ≥ 0.5 at 3× overload", res.DropRate)
	}
	ip := res.Vertices["ip"]
	if ip.Utilization < 0.95 {
		t.Fatalf("Utilization = %v, want ~1", ip.Utilization)
	}
	if ip.Dropped == 0 {
		t.Fatal("expected vertex drops")
	}
}

// The headline validation: the simulator's queueing behavior must match the
// M/M/1/N formulas the analytical model uses (paper Equations 9–12).
func TestSimMatchesMM1N(t *testing.T) {
	if testing.Short() {
		t.Skip("long statistical run")
	}
	for _, rho := range []float64{0.5, 0.8} {
		g := pipeline(t, 1e9, 1, 16)
		res, err := Run(Config{
			Graph:    g,
			Profile:  traffic.Fixed("t", unit.Bandwidth(rho*1e9), 1000),
			Seed:     3,
			Duration: 2.0,
		})
		if err != nil {
			t.Fatal(err)
		}
		q := queueing.MM1N{
			Lambda:   rho * 1e9 / 1000,
			Mu:       1e9 / 1000,
			Capacity: 17, // N counts system occupancy: 16 waiting + 1 in service
		}
		wantQ := q.QueueingDelay()
		ip := res.Vertices["ip"]
		if !approx(ip.MeanWait, wantQ, 0.12) {
			t.Errorf("rho=%v: sim wait %v vs M/M/1/N %v", rho, ip.MeanWait, wantQ)
		}
		if !approx(ip.Utilization, rho*(1-q.BlockingProb()), 0.05) {
			t.Errorf("rho=%v: utilization %v", rho, ip.Utilization)
		}
	}
}

func TestSimMatchesModelLatencyLowLoad(t *testing.T) {
	// At low load, sim mean latency ≈ model path latency (compute +
	// movement, negligible queueing).
	g, err := core.NewBuilder("chain").
		AddIngress("in").
		AddIP("a", 2e9, 1, 64).
		AddIP("b", 1e9, 1, 64).
		AddEgress("out").
		AddEdge(core.Edge{From: "in", To: "a", Delta: 1, Alpha: 1}).
		AddEdge(core.Edge{From: "a", To: "b", Delta: 1, Alpha: 1}).
		AddEdge(core.Edge{From: "b", To: "out", Delta: 1, Alpha: 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	hw := core.Hardware{InterfaceBW: 50e9}
	m := core.Model{
		Hardware: hw,
		Graph:    g,
		Traffic:  core.Traffic{IngressBW: 5e7, Granularity: 1000},
	}
	lr, err := m.Latency()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Graph:    g,
		Hardware: hw,
		Profile:  traffic.Fixed("t", unit.Bandwidth(5e7), 1000),
		Seed:     4,
		Duration: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.MeanLatency, lr.Attainable, 0.15) {
		t.Fatalf("sim %v vs model %v", res.MeanLatency, lr.Attainable)
	}
}

func TestFanOutRouting(t *testing.T) {
	// 70/30 split: arrival counts should follow the δ fractions.
	g, err := core.NewBuilder("fan").
		AddIngress("in").
		AddIP("a", 10e9, 1, 0).
		AddIP("b", 10e9, 1, 0).
		AddEgress("out").
		AddEdge(core.Edge{From: "in", To: "a", Delta: 0.7}).
		AddEdge(core.Edge{From: "in", To: "b", Delta: 0.3}).
		AddEdge(core.Edge{From: "a", To: "out", Delta: 0.7}).
		AddEdge(core.Edge{From: "b", To: "out", Delta: 0.3}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Graph:    g,
		Profile:  traffic.Fixed("t", unit.Bandwidth(1e9), 1000),
		Seed:     5,
		Duration: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := float64(res.Vertices["a"].Arrivals)
	b := float64(res.Vertices["b"].Arrivals)
	if a+b == 0 {
		t.Fatal("no arrivals")
	}
	if !approx(a/(a+b), 0.7, 0.05) {
		t.Fatalf("split = %v, want 0.7", a/(a+b))
	}
}

func TestSharedLinkBottleneck(t *testing.T) {
	// Interface slower than offered: delivery capped by BW_INTF/Σα = 1e9/2.
	g, err := core.NewBuilder("link").
		AddIngress("in").
		AddIP("ip", 100e9, 4, 0).
		AddEgress("out").
		AddEdge(core.Edge{From: "in", To: "ip", Delta: 1, Alpha: 1}).
		AddEdge(core.Edge{From: "ip", To: "out", Delta: 1, Alpha: 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Graph:    g,
		Hardware: core.Hardware{InterfaceBW: 1e9},
		Profile:  traffic.Fixed("t", unit.Bandwidth(5e9), 1500),
		Seed:     6,
		Duration: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput > 0.6e9 {
		t.Fatalf("Throughput = %v, want ≤ ~5e8 (interface bound)", res.Throughput)
	}
}

func TestDeterministicSeed(t *testing.T) {
	g := pipeline(t, 1e9, 2, 32)
	cfg := Config{
		Graph:    g,
		Profile:  traffic.Fixed("t", unit.Bandwidth(5e8), 1000),
		Seed:     42,
		Duration: 0.1,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DeliveredPackets != r2.DeliveredPackets || r1.MeanLatency != r2.MeanLatency {
		t.Fatal("same seed produced different results")
	}
	cfg.Seed = 43
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DeliveredPackets == r3.DeliveredPackets && r1.MeanLatency == r3.MeanLatency {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestDeterministicServiceReducesVariance(t *testing.T) {
	g := pipeline(t, 1e9, 1, 64)
	base := Config{
		Graph:    g,
		Profile:  traffic.Fixed("t", unit.Bandwidth(5e8), 1000),
		Seed:     7,
		Duration: 0.5,
	}
	exp, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	det := base
	det.DeterministicService = true
	detRes, err := Run(det)
	if err != nil {
		t.Fatal(err)
	}
	// M/D/1 waits are half of M/M/1: deterministic service must cut the
	// mean latency.
	if detRes.MeanLatency >= exp.MeanLatency {
		t.Fatalf("deterministic %v >= exponential %v", detRes.MeanLatency, exp.MeanLatency)
	}
}

func TestServiceTimerOverride(t *testing.T) {
	g := pipeline(t, 1e9, 1, 0)
	fixed := 5e-6
	var sawOutstanding bool
	res, err := Run(Config{
		Graph:    g,
		Profile:  traffic.Fixed("t", unit.Bandwidth(1e8), 1000),
		Seed:     8,
		Duration: 0.2,
		ServiceTime: map[string]ServiceTimer{
			"ip": func(size float64, outstanding int, rng *rand.Rand) float64 {
				if outstanding > 0 {
					sawOutstanding = true
				}
				return fixed
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Latency ≈ fixed service (plus queueing ~ small at 50% load... rate
	// 1e8/1000 = 1e5 pps × 5µs = 0.5 utilization).
	if res.MeanLatency < fixed {
		t.Fatalf("MeanLatency = %v < service %v", res.MeanLatency, fixed)
	}
	if res.MeanLatency > 5*fixed {
		t.Fatalf("MeanLatency = %v implausibly high", res.MeanLatency)
	}
	_ = sawOutstanding // may or may not queue; just exercising the hook
}

func TestOverheadAddsLatency(t *testing.T) {
	g := pipeline(t, 1e9, 1, 0)
	v, _ := g.Vertex("ip")
	v.Overhead = 20e-6
	g2, err := g.WithVertex(v)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Config{
		Graph: g, Profile: traffic.Fixed("t", unit.Bandwidth(1e8), 1000),
		Seed: 9, Duration: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	withO, err := Run(Config{
		Graph: g2, Profile: traffic.Fixed("t", unit.Bandwidth(1e8), 1000),
		Seed: 9, Duration: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	diff := withO.MeanLatency - base.MeanLatency
	if !approx(diff, 20e-6, 0.2) {
		t.Fatalf("overhead added %v, want ~20µs", diff)
	}
}

func TestParallelEnginesIncreaseCapacity(t *testing.T) {
	// Same P split across D engines has the same aggregate rate; but
	// P per engine fixed with more engines raises capacity. Here we keep
	// vertex P and raise D: model semantics say capacity stays P (engines
	// share it), so throughput should NOT rise.
	for _, d := range []int{1, 4} {
		g := pipeline(t, 1e9, d, 16)
		res, err := Run(Config{
			Graph:    g,
			Profile:  traffic.Fixed("t", unit.Bandwidth(3e9), 1000),
			Seed:     10,
			Duration: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !approx(res.Throughput, 1e9, 0.08) {
			t.Fatalf("D=%d: Throughput = %v, want ~1e9 (P is aggregate)", d, res.Throughput)
		}
	}
}

func TestPercentilesOrdered(t *testing.T) {
	g := pipeline(t, 1e9, 1, 64)
	res, err := Run(Config{
		Graph:    g,
		Profile:  traffic.Fixed("t", unit.Bandwidth(8e8), 1000),
		Seed:     11,
		Duration: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P50 <= res.P95 && res.P95 <= res.P99) {
		t.Fatalf("quantiles out of order: %v %v %v", res.P50, res.P95, res.P99)
	}
	if res.MeanLatency <= 0 {
		t.Fatal("mean latency must be positive")
	}
}

func TestSampleSetQuantiles(t *testing.T) {
	var s sampleSet
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	if s.count() != 100 {
		t.Fatalf("count = %d", s.count())
	}
	if !approx(s.mean(), 50.5, 1e-12) {
		t.Fatalf("mean = %v", s.mean())
	}
	if got := s.quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.quantile(0.5); !approx(got, 50.5, 1e-9) {
		t.Fatalf("q50 = %v", got)
	}
	var empty sampleSet
	if empty.mean() != 0 || empty.quantile(0.5) != 0 {
		t.Fatal("empty set should report zeros")
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw timeWeighted
	tw.set(0, 0)
	tw.set(1, 10) // value 0 for [0,1)
	tw.set(3, 0)  // value 10 for [1,3)
	if got := tw.average(4); !approx(got, (0*1+10*2+0*1)/4.0, 1e-12) {
		t.Fatalf("average = %v, want 5", got)
	}
	if got := tw.total(4); !approx(got, 20, 1e-12) {
		t.Fatalf("total = %v, want 20", got)
	}
	var fresh timeWeighted
	if fresh.average(10) != 0 {
		t.Fatal("unstarted average should be 0")
	}
}

// TestTimeWeightedMidRunObserver is the regression for the window bug:
// an observer whose first sample lands mid-run (after a warmup or a fault
// event) must average over its observed window [first, now], not over
// absolute time — dividing by now biased such averages toward zero.
func TestTimeWeightedMidRunObserver(t *testing.T) {
	var tw timeWeighted
	tw.set(5, 2) // observation starts at t=5
	tw.set(9, 0) // value 2 for [5,9)
	if got := tw.average(10); !approx(got, 2*4/5.0, 1e-12) {
		t.Fatalf("windowed average = %v, want 1.6 (integral 8 over [5,10])", got)
	}
	if got := tw.total(10); !approx(got, 8, 1e-12) {
		t.Fatalf("total = %v, want 8", got)
	}
	// A constant observer reports its constant, regardless of start time.
	var c timeWeighted
	c.set(7, 3)
	if got := c.average(12); !approx(got, 3, 1e-12) {
		t.Fatalf("constant mid-run observer average = %v, want 3", got)
	}
	// Zero-width window: nothing observed yet.
	if got := c.average(7); got != 0 {
		t.Fatalf("zero-window average = %v, want 0", got)
	}
}

func TestBurstinessInflatesLatency(t *testing.T) {
	// Same offered load, higher burst degree: deeper queues, higher mean
	// latency — the traffic-profile dimension the paper's §2.4 calls out.
	g := pipeline(t, 1e9, 1, 256)
	run := func(burst float64) Result {
		prof := traffic.Fixed("t", unit.Bandwidth(0.6e9), 1000)
		prof.BurstDegree = burst
		res, err := Run(Config{
			Graph:    g,
			Profile:  prof,
			Seed:     13,
			Duration: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(0)
	bursty := run(8)
	if !(bursty.MeanLatency > 1.5*plain.MeanLatency) {
		t.Fatalf("burstiness should inflate latency: %v vs %v",
			plain.MeanLatency, bursty.MeanLatency)
	}
	// Throughput unchanged (no drops at this load with a deep queue).
	if !approx(bursty.Throughput, plain.Throughput, 0.05) {
		t.Fatalf("throughput moved: %v vs %v", plain.Throughput, bursty.Throughput)
	}
}

// The Pollaczek–Khinchine M/G/1 formula predicts the deterministic-service
// mode: M/D/1 waits are half of M/M/1 at the same load.
func TestDeterministicServiceMatchesMD1(t *testing.T) {
	if testing.Short() {
		t.Skip("long statistical run")
	}
	g := pipeline(t, 1e9, 1, 0) // unbounded queue: compare to infinite-queue formula
	res, err := Run(Config{
		Graph:                g,
		Profile:              traffic.Fixed("t", unit.Bandwidth(0.7e9), 1000),
		Seed:                 19,
		Duration:             2.0,
		DeterministicService: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	md1 := queueing.MG1{Lambda: 0.7e6, Mu: 1e6, CV2: 0}
	ip := res.Vertices["ip"]
	if !approx(ip.MeanWait, md1.QueueingDelay(), 0.1) {
		t.Fatalf("sim wait %v vs M/D/1 %v", ip.MeanWait, md1.QueueingDelay())
	}
}

func TestLinkUtilizationReported(t *testing.T) {
	// Σα = 2 at 50% of the interface: utilization ≈ offered·Σα/BW.
	g, err := core.NewBuilder("util").
		AddIngress("in").
		AddIP("ip", 100e9, 4, 0).
		AddEgress("out").
		AddEdge(core.Edge{From: "in", To: "ip", Delta: 1, Alpha: 1}).
		AddEdge(core.Edge{From: "ip", To: "out", Delta: 1, Alpha: 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Graph:    g,
		Hardware: core.Hardware{InterfaceBW: 4e9, MemoryBW: 100e9},
		Profile:  traffic.Fixed("t", unit.Bandwidth(1e9), 1500),
		Seed:     31,
		Duration: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.InterfaceUtil, 0.5, 0.1) {
		t.Fatalf("InterfaceUtil = %v, want ~0.5", res.InterfaceUtil)
	}
	if res.MemoryUtil != 0 {
		t.Fatalf("MemoryUtil = %v, want 0 (no β edges)", res.MemoryUtil)
	}
}
