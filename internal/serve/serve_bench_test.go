package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lognic/internal/storm"
)

// wsShape spells i as trailing JSON whitespace (base 4 over space, tab,
// newline, carriage return): every i gives a distinct request body that
// decodes to the same request.
func wsShape(i int) string {
	const digits = " \t\n\r"
	var sb strings.Builder
	for {
		sb.WriteByte(digits[i%4])
		if i /= 4; i == 0 {
			return sb.String()
		}
	}
}

// BenchmarkServe drives the request path in-process, through Handler()
// and an httptest recorder, so it measures the server's own work per
// request without a network stack:
//
//   - estimate/l1hit: one byte-identical body repeated — the exact-body
//     L1 index answers before the body is parsed.
//   - estimate/hit: the same spec in a new byte shape every time — L1
//     miss, decode, validate, canonical hash, canonical cache hit.
//   - estimate/miss: a new spec every time — the full path through
//     admission, evaluation, marshal and cache put (with evictions once
//     the cache is full).
//   - optimize/miss: a new spec every time, searching one 8-point knob
//     — the miss path with the optimizer's per-candidate evaluations.
//   - optimize/hit, simulate/hit: the hit path of the other two
//     endpoints, one warmed request in a new byte shape every time.
//   - simulate/miss: a new seed every time for a 2 ms simulated run.
func BenchmarkServe(b *testing.B) {
	estimate := estimateBody(sampleSpec)
	optimize := `{"spec": ` + sampleSpec + `, "goal": "latency", ` +
		`"knobs": [{"vertex": "cores", "param": "parallelism", "lo": 1, "hi": 8}]}`
	simulate := `{"spec": ` + sampleSpec + `, "duration": 0.002, "seed": 1}`
	uniqueSpec := func(i int) string {
		return strings.Replace(sampleSpec,
			`"ingress_bw": "8Gbps"`, fmt.Sprintf(`"ingress_bw": %d`, 1_000_000_000+i), 1)
	}
	cases := []struct {
		name, path string
		warm       string
		body       func(i int) string
	}{
		{"estimate/l1hit", "/v1/estimate", estimate,
			func(int) string { return estimate }},
		{"estimate/hit", "/v1/estimate", estimate,
			func(i int) string { return estimate + wsShape(i) }},
		{"estimate/miss", "/v1/estimate", "",
			func(i int) string { return estimateBody(uniqueSpec(i)) }},
		{"optimize/miss", "/v1/optimize", "",
			func(i int) string {
				return `{"spec": ` + uniqueSpec(i) + `, "goal": "latency", ` +
					`"knobs": [{"vertex": "cores", "param": "parallelism", "lo": 1, "hi": 8}]}`
			}},
		{"optimize/hit", "/v1/optimize", optimize,
			func(i int) string { return optimize + wsShape(i) }},
		{"simulate/hit", "/v1/simulate", simulate,
			func(i int) string { return simulate + wsShape(i) }},
		{"simulate/miss", "/v1/simulate", "",
			func(i int) string {
				return fmt.Sprintf(`{"spec": %s, "duration": 0.002, "seed": %d}`, sampleSpec, i+1)
			}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s := NewServer(Config{})
			b.Cleanup(s.Close)
			h := s.Handler()
			do := func(body string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				return rec
			}
			if tc.warm != "" {
				do(tc.warm)
			}
			bodies := make([]string, b.N)
			for i := range bodies {
				bodies[i] = tc.body(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				do(bodies[i])
			}
		})
	}
}

// BenchmarkPrepare times the prepare stage of each model endpoint —
// decode, validate, cache key — and its parts, over storm's corpus bodies
// and one BlueField-2 NF-chain body (11 vertices):
//
//   - decode: the request body to its DTO;
//   - key: the DTO to its cache key;
//   - prepare: the endpoint's whole preparer, validation included.
func BenchmarkPrepare(b *testing.B) {
	var nf goldenCase
	for _, c := range goldenCorpus(b) {
		if c.name == "nfchain-accel-256" {
			nf = c
		}
	}
	if n := len(nf.spec.Graph.Vertices); n != 11 {
		b.Fatalf("NF-chain body has %d vertices, want 11", n)
	}
	s := NewServer(Config{})
	b.Cleanup(s.Close)
	for _, endpoint := range fuzzEndpoints {
		pool, err := storm.BuildCorpus(storm.CorpusConfig{Endpoint: endpoint, Unique: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var stormBodies [][]byte
		for _, it := range pool {
			stormBodies = append(stormBodies, it.Body)
		}
		nfDTO := map[string]any{
			"estimate": EstimateRequest{Spec: nf.spec},
			"optimize": OptimizeRequest{Spec: nf.spec, Goal: "goodput", Knobs: nf.knobs},
			"simulate": SimulateRequest{Spec: nf.spec, Duration: 0.002, Seed: 9},
		}[endpoint]
		nfBody, err := json.Marshal(nfDTO)
		if err != nil {
			b.Fatal(err)
		}
		prepare := s.jobPreparer(endpoint)
		for _, corpus := range []struct {
			name   string
			bodies [][]byte
		}{{"storm", stormBodies}, {"nfchain", [][]byte{nfBody}}} {
			dtos := make([]modelRequest, len(corpus.bodies))
			for i, body := range corpus.bodies {
				dtos[i] = newDTO(endpoint)
				if err := decodeRequest(body, dtos[i]); err != nil {
					b.Fatal(err)
				}
			}
			stages := []struct {
				name string
				run  func(i int) error
			}{
				{"decode", func(i int) error {
					return decodeRequest(corpus.bodies[i], newDTO(endpoint))
				}},
				{"key", func(i int) error {
					_, err := cacheKey(endpoint, dtos[i])
					return err
				}},
				{"prepare", func(i int) error {
					_, err := prepare(corpus.bodies[i])
					return err
				}},
			}
			for _, st := range stages {
				b.Run(endpoint+"/"+corpus.name+"/"+st.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := st.run(i % len(corpus.bodies)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
