package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
//   - simulate/miss: a new seed every time for a 2 ms simulated run.
func BenchmarkServe(b *testing.B) {
	estimate := estimateBody(sampleSpec)
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
