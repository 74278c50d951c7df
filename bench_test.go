package lognic

// This file is the benchmark harness deliverable: one testing.B benchmark
// per study of the paper's evaluation (regenerating its one or two figures
// through internal/experiments), the ablation benches DESIGN.md calls out, and
// microbenchmarks of the model's hot paths. Figure benches report a
// headline value from the regenerated data as a custom metric so `go test
// -bench` output doubles as a compact reproduction summary; run
// cmd/lognic-bench for the full tables.

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lognic/internal/apps"
	"lognic/internal/baselines"
	"lognic/internal/core"
	"lognic/internal/devices"
	"lognic/internal/experiments"
	"lognic/internal/numopt"
	"lognic/internal/nvme"
	"lognic/internal/obs"
	"lognic/internal/optimizer"
	"lognic/internal/queueing"
	"lognic/internal/sim"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// benchOpts keeps the simulator-backed figures affordable under -bench.
// Workers is left at the default (GOMAXPROCS), so every figure bench runs
// on the parallel sweep engine; BenchmarkSweepSpeedup records the
// serial-vs-parallel win explicitly.
var benchOpts = experiments.Options{Scale: 0.1, Seed: 1}

// runStudy regenerates the study that emits figure id b.N times and
// returns the last run's figures keyed by id.
func runStudy(b *testing.B, id string) map[string]experiments.Figure {
	b.Helper()
	// Figure regenerations are event-engine bound: allocs/op is the
	// engine's headline cost, so report it without requiring -benchmem.
	b.ReportAllocs()
	var figs map[string]experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		figs, err = experiments.Regenerate(benchOpts, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return figs
}

// runFigure regenerates a single-figure study b.N times and returns the
// last result.
func runFigure(b *testing.B, id string) experiments.Figure {
	b.Helper()
	return runStudy(b, id)[id]
}

// lastY returns the final point of a named series.
func lastY(b *testing.B, fig experiments.Figure, series string) float64 {
	b.Helper()
	for _, s := range fig.Series {
		if s.Name == series {
			return s.Points[len(s.Points)-1].Y
		}
	}
	b.Fatalf("%s: series %q missing", fig.ID, series)
	return 0
}

func BenchmarkFig05AcceleratorGranularity(b *testing.B) {
	fig := runFigure(b, "fig5")
	// Headline: CRC throughput fraction retained at 16KB (paper: 13.6%).
	crc16k := lastY(b, fig, "crc")
	crcMax := fig.Series[0].Points[0].Y
	b.ReportMetric(crc16k/crcMax*100, "%crc@16KB")
}

func BenchmarkFig06NVMeOFLatency(b *testing.B) {
	fig := runFigure(b, "fig6")
	// Headline: mean |model−measured| latency error over the 4KB-RRD sweep.
	var meas, model []float64
	for _, s := range fig.Series {
		switch s.Name {
		case "4KB-RRD-Measured":
			for _, p := range s.Points {
				meas = append(meas, p.Y)
			}
		case "4KB-RRD-LogNIC":
			for _, p := range s.Points {
				model = append(model, p.Y)
			}
		}
	}
	sum := 0.0
	for i := range meas {
		sum += math.Abs(model[i]-meas[i]) / meas[i]
	}
	b.ReportMetric(sum/float64(len(meas))*100, "%err")
}

func BenchmarkFig07ReadRatio(b *testing.B) {
	fig := runFigure(b, "fig7")
	// Headline: model underprediction at the 50/50 mix (paper: ~14.6%).
	var measured, model float64
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.X == 50 {
				switch s.Name {
				case "RD-Measured", "WR-Measured":
					measured += p.Y
				case "RD-LogNIC", "WR-LogNIC":
					model += p.Y
				}
			}
		}
	}
	b.ReportMetric((1-model/measured)*100, "%underpred@50")
}

func BenchmarkFig09ParallelismSweep(b *testing.B) {
	fig := runFigure(b, "fig9")
	b.ReportMetric(lastY(b, fig, "md5-Measured"), "MOPS-md5@16c")
	sat, err := experiments.Fig9SaturationCores()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(sat["md5"]), "cores-md5")
	b.ReportMetric(float64(sat["kasumi"]), "cores-kasumi")
	b.ReportMetric(float64(sat["hfa"]), "cores-hfa")
}

func BenchmarkFig10PacketSizeSweep(b *testing.B) {
	fig := runFigure(b, "fig10")
	b.ReportMetric(lastY(b, fig, "crc"), "Gbps-crc@MTU")
	b.ReportMetric(lastY(b, fig, "hfa"), "Gbps-hfa@MTU")
}

func BenchmarkFig11Fig12Microservice(b *testing.B) {
	figs := runStudy(b, "fig11")
	g := experiments.GainsFromFigures(figs["fig11"], figs["fig12"])
	b.ReportMetric(g.ThroughputVsRR*100, "%gain-vs-RR")
	b.ReportMetric(g.ThroughputVsEqual*100, "%gain-vs-Eq")
	b.ReportMetric(g.LatencyVsRR*100, "%saving-vs-RR")
	b.ReportMetric(g.LatencyVsEqual*100, "%saving-vs-Eq")
}

func BenchmarkFig13Fig14Placement(b *testing.B) {
	figs := runStudy(b, "fig13")
	arm := lastY(b, figs["fig13"], "ARM-only")
	opt := lastY(b, figs["fig13"], "LogNIC-opt")
	b.ReportMetric((opt/arm-1)*100, "%gain-vs-ARM@MTU")
	armL := lastY(b, figs["fig14"], "ARM-only")
	optL := lastY(b, figs["fig14"], "LogNIC-opt")
	b.ReportMetric((1-optL/armL)*100, "%saving-vs-ARM@MTU")
}

func BenchmarkFig15CreditSizing(b *testing.B) {
	fig := runFigure(b, "fig15")
	b.ReportMetric(lastY(b, fig, "TP1(64/512)"), "Gbps-TP1@8credits")
	credits, err := experiments.Fig15SuggestedCredits()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(credits["TP1(64/512)"]), "credits-TP1")
}

func BenchmarkFig16Fig17Steering(b *testing.B) {
	figs := runStudy(b, "fig16")
	// Headline: LogNIC latency reduction and throughput gain vs the worst
	// static split at MTU.
	b.ReportMetric((1-lastY(b, figs["fig16"], "LogNIC")/lastY(b, figs["fig16"], "10/70"))*100, "%saving-vs-10/70@MTU")
	b.ReportMetric((lastY(b, figs["fig17"], "LogNIC")/lastY(b, figs["fig17"], "10/70")-1)*100, "%gain-vs-10/70@MTU")
}

func BenchmarkFig18Fig19Parallelism(b *testing.B) {
	figs := runStudy(b, "fig18")
	lanes, err := experiments.Fig18SuggestedLanes()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(lanes["Traffic Profile 1"]), "lanes-tp1")
	b.ReportMetric(float64(lanes["Traffic Profile 2"]), "lanes-tp2")
	b.ReportMetric(lastY(b, figs["fig18"], "Traffic Profile 1"), "us-tp1@8lanes")
	b.ReportMetric(lastY(b, figs["fig19"], "Traffic Profile 1"), "Gbps-tp1@8lanes")
}

// BenchmarkSweepSpeedup regenerates the most simulator-heavy inline
// figure (fig9: 48 replications) serially and on the full worker pool,
// and reports the wall-clock speedup plus the worker count — the parallel
// sweep engine's headline metric. Both runs produce byte-identical figure
// data (asserted here too, cheaply, via Format), so the speedup is free
// of statistical caveats. On a single-core machine the ratio is ~1.
func BenchmarkSweepSpeedup(b *testing.B) {
	serialOpts := benchOpts
	serialOpts.Workers = 1
	parallelOpts := benchOpts
	parallelOpts.Workers = runtime.GOMAXPROCS(0)
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		figSerial, err := experiments.Fig9(serialOpts)
		if err != nil {
			b.Fatal(err)
		}
		serial += time.Since(t0)
		t1 := time.Now()
		figParallel, err := experiments.Fig9(parallelOpts)
		if err != nil {
			b.Fatal(err)
		}
		parallel += time.Since(t1)
		if figSerial.Format() != figParallel.Format() {
			b.Fatal("worker count changed figure output")
		}
	}
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "x-speedup")
	b.ReportMetric(float64(parallelOpts.Workers), "workers")
	// s-serial is the reference wall time the CI trace-overhead smoke
	// compares BenchmarkTracingDisabled against (budget: +5%).
	b.ReportMetric(serial.Seconds()/float64(b.N), "s-serial")
}

// benchFig9Serial regenerates fig9 on one worker — the same workload
// BenchmarkSweepSpeedup times serially — under the given observability
// options.
func benchFig9Serial(b *testing.B, o experiments.Options) {
	b.Helper()
	o.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracingDisabled measures the observability hooks at their
// default setting: wired through the sweep engine and the simulator hot
// paths but with no registry or tracer attached. CI compares its ns/op to
// BenchmarkSweepSpeedup's s-serial metric and fails the build if the
// disabled-instrumentation path costs more than 5% — the budget the
// nil-guarded span/metric call sites are designed to meet.
func BenchmarkTracingDisabled(b *testing.B) {
	benchFig9Serial(b, benchOpts)
}

// BenchmarkTracingEnabled is the same workload with a live registry and
// span tracer, for eyeballing the enabled-path cost (not budgeted).
func BenchmarkTracingEnabled(b *testing.B) {
	o := benchOpts
	o.Metrics = obs.NewRegistry()
	o.Trace = obs.NewTracer(0)
	benchFig9Serial(b, o)
}

// BenchmarkAblationQueueModel compares the paper's folded M/M/1/N vertex
// queueing against the M/M/c/K extension and the simulator's ground truth
// for a wide (8-engine) IP at 80% utilization — the design choice behind
// core.QueueModel.
func BenchmarkAblationQueueModel(b *testing.B) {
	build := func(qm core.QueueModel) core.Model {
		g, err := core.NewBuilder("ablate").
			AddIngress("in").
			AddVertex(core.Vertex{
				Name: "ip", Kind: core.KindIP, Throughput: 2e9,
				Parallelism: 8, QueueCapacity: 64, QueueModel: qm,
			}).
			AddEgress("out").
			Connect("in", "ip", 1).
			Connect("ip", "out", 1).
			Build()
		if err != nil {
			b.Fatal(err)
		}
		return core.Model{
			Graph:   g,
			Traffic: core.Traffic{IngressBW: 1.6e9, Granularity: 1500},
		}
	}
	var mm1n, mmck, measured float64
	for i := 0; i < b.N; i++ {
		lr1, err := build(core.QueueMM1N).Latency()
		if err != nil {
			b.Fatal(err)
		}
		lrC, err := build(core.QueueMMcK).Latency()
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Graph:    build(core.QueueMMcK).Graph,
			Profile:  traffic.Fixed("mtu", unit.Bandwidth(1.6e9), 1500),
			Seed:     1,
			Duration: 0.05,
		})
		if err != nil {
			b.Fatal(err)
		}
		mm1n, mmck, measured = lr1.Attainable, lrC.Attainable, res.MeanLatency
	}
	b.ReportMetric(mm1n*1e6, "us-mm1n")
	b.ReportMetric(mmck*1e6, "us-mmck")
	b.ReportMetric(measured*1e6, "us-sim")
}

// BenchmarkAblationLogCA contrasts LogNIC's packet-centric estimate with
// the real LogCA baseline (internal/baselines) on the BlueField-2 NF
// chain. LogCA answers the offload question (break-even granularity,
// asymptotic speedup) but is load-blind: its per-packet time is one number
// regardless of the offered rate, so it misses the queueing that dominates
// LogNIC's estimate as the chain approaches saturation.
func BenchmarkAblationLogCA(b *testing.B) {
	d := devices.BlueField2DPU()
	chain := apps.MiddleboxChain()
	place := apps.AcceleratorOnly(chain)
	// A LogCA instance for the PE (crypto) offload on this device.
	pe := chain[4]
	eng, err := d.Engine("crypto")
	if err != nil {
		b.Fatal(err)
	}
	logca := baselines.LogCA{
		Compute:      pe.ARMPerByte,
		Acceleration: pe.ARMPerByte / eng.PerByte,
		Overhead:     eng.TransferOverhead + eng.PacketBase,
		Latency:      1 / d.InterfaceBW.BytesPerSecond(),
	}
	var lognicLat, logcaLat, breakEven float64
	for i := 0; i < b.N; i++ {
		m, err := apps.NFChainModel(d, chain, place, 1500, 15e9)
		if err != nil {
			b.Fatal(err)
		}
		lr, err := m.Latency()
		if err != nil {
			b.Fatal(err)
		}
		lognicLat = lr.Attainable
		logcaLat = logca.AcceleratedTime(1500)
		g1, ok := logca.BreakEven()
		if !ok {
			b.Fatal("crypto offload should break even")
		}
		breakEven = g1
	}
	b.ReportMetric(lognicLat*1e6, "us-lognic@15G")
	b.ReportMetric(logcaLat*1e6, "us-logca-anyload")
	b.ReportMetric(breakEven, "B-logca-breakeven")
}

// BenchmarkAblationOptimizer compares the Nelder–Mead/penalty solver
// against exhaustive grid search on the Figure 16 steering space: same
// optimum, far fewer model evaluations.
func BenchmarkAblationOptimizer(b *testing.B) {
	d := devices.PANICPrototype()
	build := func(x float64) (core.Model, error) {
		return apps.PANICParallelized(d, 512, 12e9, 0.2, x, 0.8-x, 64)
	}
	objective := func(x float64) float64 {
		m, err := build(x)
		if err != nil {
			return math.Inf(1)
		}
		v, err := optimizer.Score(m, optimizer.MinimizeLatency)
		if err != nil {
			return math.Inf(1)
		}
		return v
	}
	var golden, grid float64
	var gridEvals int
	for i := 0; i < b.N; i++ {
		x, err := optimizer.SteerTraffic(build, 0.05, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		golden = x
		// Exhaustive reference at 0.1% resolution.
		best, bestF := 0.0, math.Inf(1)
		gridEvals = 0
		for g := 0.05; g <= 0.75; g += 0.001 {
			gridEvals++
			if f := objective(g); f < bestF {
				best, bestF = g, f
			}
		}
		grid = best
	}
	b.ReportMetric(golden*100, "%x-goldensection")
	b.ReportMetric(grid*100, "%x-grid")
	b.ReportMetric(float64(gridEvals), "grid-evals")
}

// BenchmarkSimEngine measures the discrete-event simulator's raw event
// throughput. pipeline is a three-stage pipeline with no shared links;
// linkbound is the lognic-storm shape rx → cores → accel → tx on the
// LiquidIO-2-class part (8 cores, 512 B packets) with ingress at 0.9× the
// interface: every byte crosses the interface twice, so it carries 1.8×
// its bandwidth and its backlog of in-flight transfers grows all run.
// parallel runs linkbound on every GOMAXPROCS goroutine at once, the
// shape of lognic-serve answering concurrent simulate requests: with
// several runs allocating together the GC is often marking, which a lone
// serial run rarely sees. Each reports ns/event (wall time over all
// events) and the peak number of pending events.
func BenchmarkSimEngine(b *testing.B) {
	b.Run("pipeline", func(b *testing.B) {
		g, err := core.NewBuilder("perf").
			AddIngress("in").
			AddIP("a", 4e9, 4, 64).
			AddIP("c", 4e9, 4, 64).
			AddEgress("out").
			Connect("in", "a", 1).
			Connect("a", "c", 1).
			Connect("c", "out", 1).
			Build()
		if err != nil {
			b.Fatal(err)
		}
		benchEngine(b, sim.Config{
			Graph:    g,
			Profile:  traffic.Fixed("mtu", unit.Bandwidth(3e9), 1500),
			Duration: 0.02,
		})
	})
	b.Run("linkbound", func(b *testing.B) {
		benchEngine(b, linkboundConfig(b))
	})
	b.Run("parallel", func(b *testing.B) {
		benchEngineParallel(b, linkboundConfig(b))
	})
}

// linkboundConfig is BenchmarkSimEngine's linkbound run.
func linkboundConfig(b *testing.B) sim.Config {
	const intf = 50e9 / 8 // interface bytes/s
	g, err := core.NewBuilder("storm-lio2").
		AddIngress("rx").
		AddVertex(core.Vertex{Name: "cores", Kind: core.KindIP, Throughput: 10e9 / 8,
			Parallelism: 8, QueueCapacity: 64, Overhead: 3e-7}).
		AddVertex(core.Vertex{Name: "accel", Kind: core.KindIP, Throughput: 40e9 / 8,
			Parallelism: 2, QueueCapacity: 128}).
		AddEgress("tx").
		AddEdge(core.Edge{From: "rx", To: "cores", Delta: 1, Alpha: 1}).
		AddEdge(core.Edge{From: "cores", To: "accel", Delta: 1, Alpha: 1, Beta: 1}).
		AddEdge(core.Edge{From: "accel", To: "tx", Delta: 1}).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	return sim.Config{
		Graph:    g,
		Hardware: core.Hardware{InterfaceBW: intf, MemoryBW: 160e9},
		Profile:  traffic.Fixed("storm", unit.Bandwidth(0.9*intf), 512),
		Duration: 0.002,
	}
}

// benchEngine runs cfg b.N times, one seed per run, and reports
// delivered packets per second, ns per event and the peak number of
// pending events.
func benchEngine(b *testing.B, cfg sim.Config) {
	b.Helper()
	var packets, peak int
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		packets += res.DeliveredPackets
		events += s.Events()
		peak = max(peak, s.PeakPending())
	}
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(peak), "peak-pending")
}

// benchEngineParallel is benchEngine with the b.N runs spread over
// b.RunParallel's goroutines, each run with its own seed. ns/event is
// wall time over the events of all runs.
func benchEngineParallel(b *testing.B, cfg sim.Config) {
	b.Helper()
	var seed, packets, events, peak atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			cfg := cfg
			cfg.Seed = seed.Add(1)
			s, err := sim.New(cfg)
			if err != nil {
				b.Error(err)
				return
			}
			res, err := s.Run()
			if err != nil {
				b.Error(err)
				return
			}
			packets.Add(int64(res.DeliveredPackets))
			events.Add(int64(s.Events()))
			for p := int64(s.PeakPending()); ; {
				old := peak.Load()
				if p <= old || peak.CompareAndSwap(old, p) {
					break
				}
			}
		}
	})
	b.ReportMetric(float64(packets.Load())/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events.Load()), "ns/event")
	b.ReportMetric(float64(peak.Load()), "peak-pending")
}

// BenchmarkMesh64 runs the 64-tenant microservice mesh (sim.MeshConfig,
// 385 vertices), the engine's large-graph benchmark: the golden scenarios
// are a handful of vertices each, so this is where per-event costs that
// scale with graph width would show. Its pending set, hundreds of keys,
// overflows the event queue's run into the heap, so its ns/event is the
// heap path's. It reports what BenchmarkSimEngine does.
func BenchmarkMesh64(b *testing.B) {
	cfg, err := sim.MeshConfig(64, 0.7, 1, 2e-4)
	if err != nil {
		b.Fatal(err)
	}
	benchEngine(b, cfg)
}

// BenchmarkThroughputModel measures one Equation 1–4 evaluation.
func BenchmarkThroughputModel(b *testing.B) {
	d := devices.StingrayPS1100R()
	m, err := apps.NVMeoF(apps.NVMeoFConfig{
		Device: d, Drive: nvme.StingrayDrive(false), Kind: nvme.RandRead,
		IOBytes: 4096, OfferedBW: 1e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Throughput(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyModel measures one Equation 5–8+12 evaluation.
func BenchmarkLatencyModel(b *testing.B) {
	d := devices.StingrayPS1100R()
	m, err := apps.NVMeoF(apps.NVMeoFConfig{
		Device: d, Drive: nvme.StingrayDrive(false), Kind: nvme.RandRead,
		IOBytes: 4096, OfferedBW: 1e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Latency(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMM1NClosedForm measures the Equation 12 closed form.
func BenchmarkMM1NClosedForm(b *testing.B) {
	q := queueing.MM1N{Lambda: 0.8e6, Mu: 1e6, Capacity: 64}
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += q.QueueingDelayClosedForm()
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkGraphBuild measures execution-graph construction+validation.
func BenchmarkGraphBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.NewBuilder("bench").
			AddIngress("in").
			AddIP("a", 1e9, 2, 32).
			AddIP("b", 2e9, 4, 32).
			AddIP("c", 3e9, 8, 32).
			AddEgress("out").
			Connect("in", "a", 1).
			Connect("a", "b", 1).
			Connect("b", "c", 1).
			Connect("c", "out", 1).
			Build()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerTuneParallelism measures one §4.4 parallelism search.
func BenchmarkOptimizerTuneParallelism(b *testing.B) {
	d := devices.LiquidIO2CN2360()
	chain := apps.E3Workloads()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.TuneParallelism(d, chain, d.Cores, 1e9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNumoptNelderMead measures the simplex solver on Rosenbrock.
func BenchmarkNumoptNelderMead(b *testing.B) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		c := x[1] - x[0]*x[0]
		return a*a + 100*c*c
	}
	for i := 0; i < b.N; i++ {
		if _, err := numopt.NelderMead(f, []float64{-1.2, 1}, numopt.NelderMeadOptions{MaxIter: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}
