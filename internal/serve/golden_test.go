package serve

// Response golden digests: /v1/estimate and /v1/optimize bodies over a
// fixed corpus are byte-for-byte part of the serving contract — cached
// bodies, peer snapshots and client diffs all depend on them. The corpus
// mixes storm permutations (4 vertices), a BlueField-2 NF chain and both
// PANIC chains, rendered with spec.FromModel, and asks every optimize
// goal with one to three knobs. Refresh intentionally changed goldens
// with:
//
//	go test ./internal/serve -run TestModelResponsesGolden -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lognic/internal/apps"
	"lognic/internal/core"
	"lognic/internal/devices"
	"lognic/internal/simtest"
	"lognic/internal/spec"
	"lognic/internal/storm"
)

// goldenCase is one corpus spec and the knobs its optimize requests turn.
type goldenCase struct {
	name  string
	spec  spec.File
	knobs []KnobSpec
}

func goldenCorpus(t testing.TB) []goldenCase {
	t.Helper()
	var cases []goldenCase
	pool, err := storm.BuildCorpus(storm.CorpusConfig{Endpoint: "estimate", Unique: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range pool {
		var req EstimateRequest
		if err := json.Unmarshal(it.Body, &req); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{fmt.Sprintf("storm%d", i), req.Spec, []KnobSpec{
			{Vertex: "cores", Param: "parallelism", Lo: 1, Hi: 8},
			{Vertex: "accel", Param: "queue", Lo: 1, Hi: 4},
			{Vertex: "cores", Param: "queue", Lo: 2, Hi: 5},
		}})
	}
	model := func(name string, m core.Model, err error, knobs ...KnobSpec) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, goldenCase{name, spec.FromModel(m), knobs})
	}
	bf2, pan := devices.BlueField2DPU(), devices.PANICPrototype()
	chain := apps.MiddleboxChain()
	for _, pkt := range []float64{256, 1500} {
		load := 0.3 * bf2.LineRate.BytesPerSecond()
		m, err := apps.NFChainModel(bf2, chain, apps.AcceleratorOnly(chain), pkt, load)
		model(fmt.Sprintf("nfchain-accel-%.0f", pkt), m, err,
			KnobSpec{Vertex: "arm-dpi", Param: "parallelism", Lo: 1, Hi: 8},
			KnobSpec{Vertex: "arm-dpi", Param: "queue", Lo: 1, Hi: 16})
		m, err = apps.NFChainModel(bf2, chain, apps.ARMOnly(chain), pkt, load)
		model(fmt.Sprintf("nfchain-arm-%.0f", pkt), m, err,
			KnobSpec{Vertex: "arm-dpi", Param: "parallelism", Lo: 1, Hi: 4})
	}
	for _, credits := range []int{4, 32} {
		load := 0.5 * pan.LineRate.BytesPerSecond()
		m, err := apps.PANICPipelined(pan, 1024, load, credits)
		model(fmt.Sprintf("panic-m1-c%d", credits), m, err,
			KnobSpec{Vertex: "a2", Param: "parallelism", Lo: 1, Hi: 8},
			KnobSpec{Vertex: "a1", Param: "queue", Lo: 1, Hi: 8})
		m, err = apps.PANICParallelized(pan, 512, load, 0.2, 0.3, 0.5, credits)
		model(fmt.Sprintf("panic-m2-c%d", credits), m, err,
			KnobSpec{Vertex: "a2", Param: "parallelism", Lo: 1, Hi: 4},
			KnobSpec{Vertex: "a3", Param: "parallelism", Lo: 1, Hi: 4},
			KnobSpec{Vertex: "sched", Param: "queue", Lo: 1, Hi: 3})
	}
	return cases
}

// TestModelResponsesGolden digests every estimate body and every
// optimize body (each goal, over the first one, two and three knobs) of
// the corpus, status code included, against testdata.
func TestModelResponsesGolden(t *testing.T) {
	g := simtest.LoadGolden(t, "testdata/response_digests.json")
	defer g.Save(t)
	s := NewServer(Config{})
	t.Cleanup(s.Close)
	h := s.Handler()
	check := func(key, path string, req any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
		sum := sha256.Sum256(append([]byte(fmt.Sprintf("%d\n", rec.Code)), rec.Body.Bytes()...))
		g.Check(t, key, hex.EncodeToString(sum[:]))
	}
	for _, c := range goldenCorpus(t) {
		check(simtest.Key(c.name, "estimate"), "/v1/estimate", EstimateRequest{Spec: c.spec})
		for _, goal := range []string{"latency", "throughput", "goodput"} {
			for n := 1; n <= len(c.knobs); n++ {
				check(simtest.Key(c.name, "optimize", goal, n), "/v1/optimize",
					OptimizeRequest{Spec: c.spec, Goal: goal, Knobs: c.knobs[:n]})
			}
		}
	}
}
