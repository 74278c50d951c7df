package storm

// The spec corpus: generated permutations of device, scenario shape and
// offered load, so a run's cache hit-ratio is a controlled variable —
// corpus size n against a replica cache of c entries converges to a
// steady-state hit ratio of 1 when n ≤ c and degrades predictably past
// it. Every item is guaranteed distinct (a unique per-index nudge on the
// offered load), and carries the canonical spec hash (spec.File.Hash)
// that hash-affinity routing keys on, so every request for one spec lands
// on one replica.

import (
	"encoding/json"
	"fmt"

	"lognic/internal/spec"
)

// Item is one request of the corpus: the endpoint it targets, the exact
// POST body, and the canonical spec hash for affinity routing. Evals is
// the number of model evaluations one request covers — 1 for estimate and
// simulate, the knob-sweep width for optimize — so throughput can be
// reported in evaluations/s, the unit that compares across endpoints.
type Item struct {
	Endpoint string `json:"endpoint"`
	Body     []byte `json:"-"`
	SpecHash string `json:"spec_hash"`
	Evals    int    `json:"evals"`
}

// CorpusConfig tunes corpus generation.
type CorpusConfig struct {
	// Endpoint is "estimate", "simulate" or "optimize".
	Endpoint string
	// Unique is the number of distinct items (≥1). Smaller corpora hit
	// the replica caches more; a corpus larger than the fleet's cache
	// capacity forces steady-state misses.
	Unique int
	// SimDuration is the simulated seconds per /v1/simulate item
	// (default 0.002 — long enough to cost real work, short enough to
	// sweep).
	SimDuration float64
	// Seed feeds the per-item simulation seeds so distinct corpora don't
	// collide in a shared cache tier.
	Seed int64
}

// device is one hardware/scenario template the permutations start from.
type device struct {
	name        string
	interfaceBW spec.Bandwidth
	memoryBW    spec.Bandwidth
	coreBW      spec.Bandwidth // per-stage processing throughput
	accelBW     spec.Bandwidth // accelerator stage throughput
}

// devices are loosely modeled on the paper's on-path SoC catalogs: a
// LiquidIO-2-class part and a BlueField-2-class part.
var devices = []device{
	{name: "lio2", interfaceBW: 50e9 / 8, memoryBW: 160e9, coreBW: 10e9 / 8, accelBW: 40e9 / 8},
	{name: "bf2", interfaceBW: 100e9 / 8, memoryBW: 200e9, coreBW: 16e9 / 8, accelBW: 60e9 / 8},
}

// granularities are the permuted packet sizes in bytes.
var granularities = []float64{512, 1024, 4096, 16384}

// loadFractions are the permuted offered loads as a fraction of the
// core-stage capacity — from comfortable to near saturation.
var loadFractions = []float64{0.2, 0.4, 0.6, 0.8}

// estimateReq / simulateReq / optimizeReq mirror the lognic-serve request
// DTOs field for field, so marshaled bodies are exactly what the daemon
// decodes.
type estimateReq struct {
	Spec spec.File `json:"spec"`
}

type simulateReq struct {
	Spec     spec.File `json:"spec"`
	Duration float64   `json:"duration"`
	Seed     int64     `json:"seed"`
}

type knobReq struct {
	Vertex string `json:"vertex"`
	Param  string `json:"param"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
}

type optimizeReq struct {
	Spec  spec.File `json:"spec"`
	Goal  string    `json:"goal"`
	Knobs []knobReq `json:"knobs"`
}

// specFor builds the i-th permutation: device × parallelism × packet size
// × load fraction, plus a per-index load nudge that keeps every item
// unique however large the corpus grows.
func specFor(i int) spec.File {
	d := devices[i%len(devices)]
	j := i / len(devices)
	par := 1 + j%8
	j /= 8
	gran := granularities[j%len(granularities)]
	j /= len(granularities)
	frac := loadFractions[j%len(loadFractions)]

	coreCapacity := float64(d.coreBW) * float64(par)
	// +i keeps items distinct once the named permutations are exhausted.
	ingress := frac*coreCapacity + float64(i)
	if max := float64(d.interfaceBW) * 0.9; ingress > max {
		ingress = max
	}
	return spec.File{
		Name: fmt.Sprintf("storm-%s-%d", d.name, i),
		Hardware: spec.Hardware{
			InterfaceBW: d.interfaceBW,
			MemoryBW:    d.memoryBW,
		},
		Graph: spec.GraphSpec{
			Vertices: []spec.VertexSpec{
				{Name: "rx", Kind: "ingress"},
				{Name: "cores", Kind: "ip", Throughput: d.coreBW, Parallelism: par, QueueCapacity: 64, Overhead: 3e-7, QueueModel: "mm1n"},
				{Name: "accel", Kind: "ip", Throughput: d.accelBW, Parallelism: 2, QueueCapacity: 128, QueueModel: "mmck"},
				{Name: "tx", Kind: "egress"},
			},
			Edges: []spec.EdgeSpec{
				{From: "rx", To: "cores", Delta: 1, Alpha: 1},
				{From: "cores", To: "accel", Delta: 1, Alpha: 1, Beta: 1},
				{From: "accel", To: "tx", Delta: 1},
			},
		},
		Traffic: spec.TrafficSpec{
			IngressBW:   spec.Bandwidth(ingress),
			Granularity: spec.Size(gran),
		},
	}
}

// BuildCorpus generates cfg.Unique distinct request items.
func BuildCorpus(cfg CorpusConfig) ([]Item, error) {
	if cfg.Unique < 1 {
		return nil, fmt.Errorf("storm: corpus needs at least one item")
	}
	simDur := cfg.SimDuration
	if simDur <= 0 {
		simDur = 0.002
	}
	items := make([]Item, 0, cfg.Unique)
	for i := 0; i < cfg.Unique; i++ {
		f := specFor(i)
		hash, err := f.Hash()
		if err != nil {
			return nil, fmt.Errorf("storm: hashing corpus spec %d: %w", i, err)
		}
		var body []byte
		evals := 1
		switch cfg.Endpoint {
		case "estimate":
			body, err = json.Marshal(estimateReq{Spec: f})
		case "simulate":
			body, err = json.Marshal(simulateReq{Spec: f, Duration: simDur, Seed: cfg.Seed + int64(i)})
		case "optimize":
			body, err = json.Marshal(optimizeReq{Spec: f, Goal: "latency", Knobs: []knobReq{
				{Vertex: "cores", Param: "parallelism", Lo: 1, Hi: 8},
			}})
			evals = 8 // the optimizer evaluates every parallelism in [1,8]
		default:
			return nil, fmt.Errorf("storm: unknown endpoint %q (want estimate, simulate or optimize)", cfg.Endpoint)
		}
		if err != nil {
			return nil, fmt.Errorf("storm: marshaling corpus item %d: %w", i, err)
		}
		items = append(items, Item{Endpoint: cfg.Endpoint, Body: body, SpecHash: hash, Evals: evals})
	}
	return items, nil
}
