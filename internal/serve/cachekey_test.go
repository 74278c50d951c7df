package serve

// Cache-key goldens: a key is sha256(endpoint NUL canonical DTO), and
// snapshots carry keys across replicas and releases, so a change to the
// canonical DTO bytes (field order, number encoding, unit normalization)
// silently turns every warmed entry into a miss. This test pins the keys
// over storm's three corpora, the NF and PANIC chains rendered with
// spec.FromModel, and documents that spell bandwidths and sizes as unit
// strings. Refresh intentionally changed keys with:
//
//	go test ./internal/serve -run TestCacheKeysGolden -update

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lognic/internal/simtest"
	"lognic/internal/storm"
)

// unitSpellings are one spec written three ways: unit strings, other
// unit strings of the same values, and plain numbers. All three must
// share one key.
var unitSpellings = []string{
	`{"name": "units", "hardware": {"interface_bw": "25Gbps", "memory_bw": "160Gbps"},
	  "graph": {"vertices": [{"name": "rx", "kind": "ingress"},
	    {"name": "ip", "throughput": "10Gbps", "parallelism": 4, "queue_capacity": 32},
	    {"name": "tx", "kind": "egress"}],
	   "edges": [{"from": "rx", "to": "ip", "delta": 1, "alpha": 1},
	    {"from": "ip", "to": "tx", "delta": 1, "bandwidth": "50Gbps"}]},
	  "traffic": {"ingress_bw": "8Gbps", "granularity": "4KB",
	    "mix": [{"weight": 1, "granularity": "1KB"}, {"weight": 3, "granularity": "1500B"}]}}`,
	`{"name": "units", "hardware": {"interface_bw": "25000Mbps", "memory_bw": "160000Mbps"},
	  "graph": {"vertices": [{"name": "rx", "kind": "ingress"},
	    {"name": "ip", "throughput": "10000Mbps", "parallelism": 4, "queue_capacity": 32},
	    {"name": "tx", "kind": "egress"}],
	   "edges": [{"from": "rx", "to": "ip", "delta": 1, "alpha": 1},
	    {"from": "ip", "to": "tx", "delta": 1, "bandwidth": "50000Mbps"}]},
	  "traffic": {"ingress_bw": "8000Mbps", "granularity": 4096,
	    "mix": [{"weight": 1, "granularity": 1024}, {"weight": 3, "granularity": 1500}]}}`,
	`{"name": "units", "hardware": {"interface_bw": 3.125e9, "memory_bw": 2e10},
	  "graph": {"vertices": [{"name": "rx", "kind": "ingress"},
	    {"name": "ip", "throughput": 1.25e9, "parallelism": 4, "queue_capacity": 32},
	    {"name": "tx", "kind": "egress"}],
	   "edges": [{"from": "rx", "to": "ip", "delta": 1, "alpha": 1},
	    {"from": "ip", "to": "tx", "delta": 1, "bandwidth": 6.25e9}]},
	  "traffic": {"ingress_bw": 1e9, "granularity": "4KB",
	    "mix": [{"weight": 1, "granularity": "1KB"}, {"weight": 3, "granularity": 1500}]}}`,
}

func TestCacheKeysGolden(t *testing.T) {
	g := simtest.LoadGolden(t, "testdata/cache_keys.json")
	defer g.Save(t)
	check := func(name, endpoint string, dto modelRequest) string {
		t.Helper()
		key, err := cacheKey(endpoint, dto)
		if err != nil {
			t.Fatal(err)
		}
		g.Check(t, simtest.Key(name, endpoint), key)
		return key
	}
	// decode reads a request body the way the handlers do.
	decode := func(body []byte, dto modelRequest) {
		t.Helper()
		if err := decodeRequest(body, dto); err != nil {
			t.Fatal(err)
		}
	}

	for _, endpoint := range []string{"estimate", "optimize", "simulate"} {
		pool, err := storm.BuildCorpus(storm.CorpusConfig{Endpoint: endpoint, Unique: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range pool {
			var dto modelRequest
			switch endpoint {
			case "estimate":
				dto = &EstimateRequest{}
			case "optimize":
				dto = &OptimizeRequest{}
			default:
				dto = &SimulateRequest{}
			}
			decode(it.Body, dto)
			check(fmt.Sprintf("storm%d", i), endpoint, dto)
		}
	}

	for _, c := range goldenCorpus(t) {
		if !strings.HasPrefix(c.name, "nfchain") && !strings.HasPrefix(c.name, "panic") {
			continue
		}
		check(c.name, "estimate", &EstimateRequest{Spec: c.spec})
		check(c.name, "optimize", &OptimizeRequest{Spec: c.spec, Goal: "goodput", Knobs: c.knobs})
		check(c.name, "simulate", &SimulateRequest{Spec: c.spec, Duration: 0.002, Seed: 9})
	}

	var first string
	for i, doc := range unitSpellings {
		var req EstimateRequest
		decode([]byte(`{"spec": `+doc+`}`), &req)
		key, err := cacheKey("estimate", &req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = check("units", "estimate", &req)
		} else if key != first {
			t.Fatalf("unit spelling %d keys %s, want %s (spelling 0)", i, key, first)
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(canon), "bps") || strings.Contains(string(canon), "KB") {
			t.Fatalf("canonical DTO keeps a unit string: %s", canon)
		}
	}
}
