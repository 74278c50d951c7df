package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDecodeErrorText pins the 400 bodies that malformed requests get.
// The expected bodies were recorded from the encoding/json decoder the
// model endpoints and the job envelope used before the hand-written one,
// so clients that match on error text see no change.
func TestDecodeErrorText(t *testing.T) {
	spec := func(edge string) string {
		return `{"spec": {"graph": {"vertices": [{"name": "rx", "kind": "ingress"}, {"name": "tx", "kind": "egress"}],` +
			` "edges": [` + edge + `]}, "traffic": {"ingress_bw": 1, "granularity": 1}}`
	}
	ok := `{"from": "rx", "to": "tx", "delta": 1}`
	rows := []struct {
		name, path, body, want string
	}{
		{"unknown top", "/v1/estimate", `{"spec": {}, "extra": 1}`,
			`{"error":"serve: bad request body: json: unknown field \"extra\""}`},
		{"unknown spec", "/v1/estimate", `{"spec": {"nmae": "x"}}`,
			`{"error":"serve: bad request body: json: unknown field \"nmae\""}`},
		{"unknown hardware", "/v1/estimate", `{"spec": {"hardware": {"intf": 1}}}`,
			`{"error":"serve: bad request body: json: unknown field \"intf\""}`},
		{"unknown graph", "/v1/estimate", `{"spec": {"graph": {"nodes": []}}}`,
			`{"error":"serve: bad request body: json: unknown field \"nodes\""}`},
		{"unknown vertex", "/v1/estimate", `{"spec": {"graph": {"vertices": [{"name": "a", "cores": 2}]}}}`,
			`{"error":"serve: bad request body: json: unknown field \"cores\""}`},
		{"unknown edge", "/v1/estimate", spec(`{"from": "rx", "to": "tx", "delta": 1, "gamma": 2}`) + `}`,
			`{"error":"serve: bad request body: json: unknown field \"gamma\""}`},
		{"unknown traffic", "/v1/estimate", `{"spec": {"traffic": {"rate": 1}}}`,
			`{"error":"serve: bad request body: json: unknown field \"rate\""}`},
		{"unknown mix", "/v1/estimate", `{"spec": {"traffic": {"mix": [{"weight": 1, "size": 2}]}}}`,
			`{"error":"serve: bad request body: json: unknown field \"size\""}`},
		{"unknown knob", "/v1/optimize", `{"spec": {}, "knobs": [{"vertex": "a", "step": 1}]}`,
			`{"error":"serve: bad request body: json: unknown field \"step\""}`},
		{"string in float", "/v1/estimate", spec(`{"from": "rx", "to": "tx", "delta": "1"}`) + `}`,
			`{"error":"serve: bad request body: json: cannot unmarshal string into Go struct field EdgeSpec.spec.graph.edges.delta of type float64"}`},
		{"fraction in int", "/v1/estimate", `{"spec": {"graph": {"vertices": [{"name": "a", "parallelism": 1.5}]}}}`,
			`{"error":"serve: bad request body: json: cannot unmarshal number 1.5 into Go struct field VertexSpec.spec.graph.vertices.parallelism of type int"}`},
		{"fraction in knob", "/v1/optimize", `{"spec": {}, "knobs": [{"vertex": "a", "lo": 1.5}]}`,
			`{"error":"serve: bad request body: json: cannot unmarshal number 1.5 into Go struct field KnobSpec.knobs.lo of type int"}`},
		{"string in top-level float", "/v1/simulate", `{"spec": {}, "duration": "1"}`,
			`{"error":"serve: bad request body: json: cannot unmarshal string into Go struct field SimulateRequest.duration of type float64"}`},
		{"array body", "/v1/estimate", `[]`,
			`{"error":"serve: bad request body: json: cannot unmarshal array into Go value of type serve.EstimateRequest"}`},
		{"bool bandwidth", "/v1/estimate", `{"spec": {"hardware": {"interface_bw": true}}}`,
			`{"error":"serve: bad request body: spec: bandwidth must be a number or string: true"}`},
		{"object size", "/v1/estimate", `{"spec": {"traffic": {"granularity": { "a" : 1 }}}}`,
			`{"error":"serve: bad request body: spec: size must be a number or string: { \"a\" : 1 }"}`},
		{"bad unit", "/v1/estimate", `{"spec": {"hardware": {"interface_bw": "5Qbps"}}}`,
			`{"error":"serve: bad request body: unit: parse bandwidth \"5Qbps\": strconv.ParseFloat: parsing \"5qbps\": invalid syntax"}`},
		{"unit error beats earlier unknown field", "/v1/estimate", `{"spec": {"x": 1, "hardware": {"memory_bw": "1XB"}}}`,
			`{"error":"serve: bad request body: unit: parse bandwidth \"1XB\": strconv.ParseFloat: parsing \"1xb\": invalid syntax"}`},
		{"empty body", "/v1/estimate", ``,
			`{"error":"serve: bad request body: EOF"}`},
		{"blank body", "/v1/estimate", " \n\t",
			`{"error":"serve: bad request body: EOF"}`},
		{"truncated body", "/v1/estimate", `{"spec": {"name": "x"`,
			`{"error":"serve: bad request body: unexpected EOF"}`},
		{"missing value", "/v1/estimate", `{"spec": }`,
			`{"error":"serve: bad request body: invalid character '}' looking for beginning of value"}`},
		{"bad key", "/v1/estimate", `{"spec": {x}}`,
			`{"error":"serve: bad request body: invalid character 'x' looking for beginning of object key string"}`},
		{"syntax error beats earlier unknown field", "/v1/estimate", `{"x": 1, "spec": {"name": "a",]}`,
			`{"error":"serve: bad request body: invalid character ']' looking for beginning of object key string"}`},
		{"control character", "/v1/estimate", "{\"spec\": {\"name\": \"a\x01\"}}",
			`{"error":"serve: bad request body: invalid character '\\x01' in string literal"}`},
		{"bad exponent", "/v1/estimate", `{"spec": {"graph": {"edges": [{"delta": 1e+}]}}}`,
			`{"error":"serve: bad request body: invalid character '}' in exponent of numeric literal"}`},
		{"bad literal", "/v1/estimate", `{"spec": {"name": nul}}`,
			`{"error":"serve: bad request body: invalid character '}' in literal null (expecting 'l')"}`},
		{"negative uint", "/v1/simulate", `{"spec": {}, "max_events": -1}`,
			`{"error":"serve: bad request body: json: cannot unmarshal number -1 into Go struct field SimulateRequest.max_events of type uint64"}`},
		{"number in string", "/v1/optimize", `{"spec": {}, "goal": 1}`,
			`{"error":"serve: bad request body: json: cannot unmarshal number into Go struct field OptimizeRequest.goal of type string"}`},
		{"object in slice", "/v1/estimate", `{"spec": {"graph": {"edges": {}}}}`,
			`{"error":"serve: bad request body: json: cannot unmarshal object into Go struct field GraphSpec.spec.graph.edges of type []spec.EdgeSpec"}`},
		{"valid edge", "/v1/estimate", spec(ok) + `, "extra": 1}`,
			`{"error":"serve: bad request body: json: unknown field \"extra\""}`},
		{"job unknown field", "/v1/jobs", `{"kind": "estimate", "request": {}, "extra": 1}`,
			`{"error":"serve: bad request body: json: unknown field \"extra\""}`},
		{"job numeric kind", "/v1/jobs", `{"kind": 1, "request": {}}`,
			`{"error":"serve: bad request body: json: cannot unmarshal number into Go struct field JobSubmitRequest.kind of type string"}`},
		{"job truncated body", "/v1/jobs", `{"kind": "estimate", "request": {"spec": {}`,
			`{"error":"serve: bad request body: unexpected EOF"}`},
		{"job empty body", "/v1/jobs", ``,
			`{"error":"serve: bad request body: EOF"}`},
	}
	s := NewServer(Config{})
	t.Cleanup(s.Close)
	h := s.Handler()
	// The job rows need the (memory-only) journal replay to have finished.
	for deadline := time.Now().Add(5 * time.Second); !s.jobsReady.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job manager never became ready")
		}
	}
	for _, r := range rows {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, strings.NewReader(r.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", r.name, rec.Code, rec.Body)
			continue
		}
		if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != r.want {
			t.Errorf("%s:\n got %s\nwant %s", r.name, got, r.want)
		}
	}
}
