package main

// Workload corpora. Every workload is a fixed list of distinct request
// bodies, built from the seed alone and cycled in order by the load loop.
// The seed picks items, loads, simulation seeds and order; each workload's
// mix of shapes is fixed, so runs under different seeds load the same
// layers equally.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"

	"lognic/internal/apps"
	"lognic/internal/core"
	"lognic/internal/devices"
	"lognic/internal/serve"
	"lognic/internal/spec"
	"lognic/internal/storm"
)

// cacheEntries is the daemon's result-cache entry limit (-cache). The hot
// corpus fits it many times over; the cold corpora are twice its size.
const cacheEntries = 128

// item is one distinct request: the endpoint and the exact POST body.
type item struct {
	endpoint string
	body     []byte
}

// workload is one traffic mix.
type workload struct {
	name  string
	items []item
	// hot workloads send every item once during set-up, so each timed
	// request is an exact-body L1 hit; the others must miss every time.
	hot bool
	// traceRequests is the length of the traced in-process replay.
	traceRequests int
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"estimate-hot", "mixed-cold", "simulate-cold"}

// buildWorkload generates the named workload's corpus from the seed.
func buildWorkload(name string, seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w workload
	var err error
	switch name {
	case "estimate-hot":
		w, err = hotEstimates(rng)
	case "mixed-cold":
		w, err = mixedCold(rng)
	case "simulate-cold":
		w, err = simulateCold(seed)
	default:
		return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return workload{}, fmt.Errorf("workload %s: %w", name, err)
	}
	w.name = name
	seen := make(map[string]bool, len(w.items))
	for _, it := range w.items {
		k := it.endpoint + "\x00" + string(it.body)
		if seen[k] {
			return workload{}, fmt.Errorf("workload %s: duplicate corpus item", name)
		}
		seen[k] = true
	}
	return w, nil
}

// stormSpecs returns the first n storm permutations as spec documents.
func stormSpecs(n int) ([]spec.File, error) {
	pool, err := storm.BuildCorpus(storm.CorpusConfig{Endpoint: "estimate", Unique: n})
	if err != nil {
		return nil, err
	}
	out := make([]spec.File, len(pool))
	for i, it := range pool {
		var req serve.EstimateRequest
		if err := json.Unmarshal(it.Body, &req); err != nil {
			return nil, fmt.Errorf("decoding storm item %d: %w", i, err)
		}
		out[i] = req.Spec
	}
	return out, nil
}

// hotEstimates is 32 storm estimates picked from the first 256
// permutations: a quarter of the daemon's cache.
func hotEstimates(rng *rand.Rand) (workload, error) {
	pool, err := storm.BuildCorpus(storm.CorpusConfig{Endpoint: "estimate", Unique: 256})
	if err != nil {
		return workload{}, err
	}
	w := workload{hot: true, traceRequests: 4096}
	for _, i := range rng.Perm(len(pool))[:cacheEntries/4] {
		w.items = append(w.items, item{endpoint: "estimate", body: pool[i].Body})
	}
	return w, nil
}

// mixedCold is 256 requests, three estimates to one optimize, over a fixed
// mix of graph shapes: half storm permutations (4 vertices), a quarter
// NF chains with every offloadable function on its engine (11 vertices)
// and a quarter PANIC chains (pipelined, 6 vertices, or parallelized, 7).
func mixedCold(rng *rand.Rand) (workload, error) {
	const n = 2 * cacheEntries
	storms, err := stormSpecs(256)
	if err != nil {
		return workload{}, err
	}
	stormOrder := rng.Perm(len(storms))
	bf2, pan := devices.BlueField2DPU(), devices.PANICPrototype()
	chain := apps.MiddleboxChain()
	w := workload{traceRequests: 4096}
	for k := 0; k < n; k++ {
		var f spec.File
		var knob serve.KnobSpec
		switch k / 4 % 4 {
		case 0, 2:
			f, stormOrder = storms[stormOrder[0]], stormOrder[1:]
			knob = serve.KnobSpec{Vertex: "cores", Param: "parallelism", Lo: 1, Hi: 8}
		case 1:
			pkt := []float64{256, 512, 1024, 1500}[rng.Intn(4)]
			load := (0.1+0.3*rng.Float64())*bf2.LineRate.BytesPerSecond() + float64(k)
			m, err := apps.NFChainModel(bf2, chain, apps.AcceleratorOnly(chain), pkt, load)
			if err != nil {
				return workload{}, err
			}
			if f, err = roundTrip(m); err != nil {
				return workload{}, err
			}
			knob = serve.KnobSpec{Vertex: "arm-dpi", Param: "parallelism", Lo: 1, Hi: 8}
		case 3:
			pkt := []float64{256, 512, 1024, 1500}[rng.Intn(4)]
			load := (0.2+0.5*rng.Float64())*pan.LineRate.BytesPerSecond() + float64(k)
			credits := 4 + rng.Intn(29)
			var m core.Model
			if k%2 == 0 {
				m, err = apps.PANICPipelined(pan, pkt, load, credits)
			} else {
				s2 := 0.1 + 0.5*rng.Float64()
				m, err = apps.PANICParallelized(pan, pkt, load, 0.2, s2, 0.8-s2, credits)
			}
			if err != nil {
				return workload{}, err
			}
			if f, err = roundTrip(m); err != nil {
				return workload{}, err
			}
			knob = serve.KnobSpec{Vertex: "a2", Param: "parallelism", Lo: 1, Hi: 8}
		}
		var body []byte
		it := item{endpoint: "estimate"}
		if k%4 == 3 {
			it.endpoint = "optimize"
			body, err = json.Marshal(serve.OptimizeRequest{Spec: f, Goal: "latency", Knobs: []serve.KnobSpec{knob}})
		} else {
			body, err = json.Marshal(serve.EstimateRequest{Spec: f})
		}
		if err != nil {
			return workload{}, err
		}
		it.body = body
		w.items = append(w.items, it)
	}
	rng.Shuffle(len(w.items), func(i, j int) { w.items[i], w.items[j] = w.items[j], w.items[i] })
	return w, nil
}

// roundTrip renders an application model as a spec and checks that the
// spec, once sent as JSON and decoded the way the daemon decodes it,
// estimates exactly as the model does.
func roundTrip(m core.Model) (spec.File, error) {
	f := spec.FromModel(m)
	body, err := json.Marshal(serve.EstimateRequest{Spec: f})
	if err != nil {
		return spec.File{}, err
	}
	var req serve.EstimateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return spec.File{}, fmt.Errorf("round trip of %s: %w", m.Graph.Name(), err)
	}
	m2, err := req.Spec.Model()
	if err != nil {
		return spec.File{}, fmt.Errorf("round trip of %s: %w", m.Graph.Name(), err)
	}
	want, err := m.Estimate()
	if err != nil {
		return spec.File{}, fmt.Errorf("estimating %s: %w", m.Graph.Name(), err)
	}
	got, err := m2.Estimate()
	if err != nil || !reflect.DeepEqual(want, got) {
		return spec.File{}, fmt.Errorf("round trip of %s changes its estimate (%v)", m.Graph.Name(), err)
	}
	return f, nil
}

// simulateCold is every one of the first 256 storm permutations as a
// 2 ms simulation with its own seed. The seed sets the simulation seeds
// only: the order stays the permutation order, so the costliest runs
// overlap the same way under every seed.
func simulateCold(seed int64) (workload, error) {
	pool, err := storm.BuildCorpus(storm.CorpusConfig{
		Endpoint: "simulate", Unique: 2 * cacheEntries, SimDuration: 0.002, Seed: seed << 20,
	})
	if err != nil {
		return workload{}, err
	}
	w := workload{traceRequests: len(pool)}
	for _, it := range pool {
		w.items = append(w.items, item{endpoint: "simulate", body: it.Body})
	}
	return w, nil
}
