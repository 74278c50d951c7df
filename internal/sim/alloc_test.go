package sim

import (
	"testing"

	"lognic/internal/core"
	"lognic/internal/obs"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// TestSteadyStateAllocFree pins the engine's zero-allocation claim: with
// span tracing off and metrics on, doubling the simulated time adds
// events but (almost) no allocations. The graph is the lognic-storm
// corpus shape — rx → cores → accel → tx over a shared interface and
// memory — at 60% of the cores' capacity, so queues, transfers and both
// IP stages are all live. Per-run costs (New, the Result maps) cancel in
// the difference; only amortized slice growth may remain.
func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own behalf")
	}
	g, err := core.NewBuilder("storm").
		AddIngress("rx").
		AddVertex(core.Vertex{Name: "cores", Kind: core.KindIP, Throughput: 2e9,
			Parallelism: 4, QueueCapacity: 64, Overhead: 3e-7}).
		AddVertex(core.Vertex{Name: "accel", Kind: core.KindIP, Throughput: 7.5e9,
			Parallelism: 2, QueueCapacity: 128}).
		AddEgress("tx").
		AddEdge(core.Edge{From: "rx", To: "cores", Delta: 1, Alpha: 1}).
		AddEdge(core.Edge{From: "cores", To: "accel", Delta: 1, Alpha: 1, Beta: 1}).
		AddEdge(core.Edge{From: "accel", To: "tx", Delta: 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(duration float64) (allocs float64, events uint64) {
		allocs = testing.AllocsPerRun(3, func() {
			s, err := New(Config{
				Graph:    g,
				Hardware: core.Hardware{InterfaceBW: 12.5e9, MemoryBW: 200e9},
				Profile:  traffic.Fixed("storm", unit.Bandwidth(0.6*4*2e9), 1024),
				Seed:     1,
				Duration: duration,
				Metrics:  obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			events = s.processed
		})
		return allocs, events
	}
	a2, e2 := run(0.002)
	a4, e4 := run(0.004)
	if e4 <= e2 {
		t.Fatalf("4 ms run processed %d events, 2 ms run %d", e4, e2)
	}
	perEvent := (a4 - a2) / float64(e4-e2)
	t.Logf("2 ms: %.0f allocs / %d events; 4 ms: %.0f allocs / %d events; %.5f allocs per extra event",
		a2, e2, a4, e4, perEvent)
	if perEvent >= 0.01 {
		t.Errorf("%.4f allocs per steady-state event, want < 0.01", perEvent)
	}
}
